"""Symmetric eigendecomposition of the pseudo-Hamiltonian, class by class.

Produces the pseudo-energies E_i (ascending) and the real coefficients of
each dressed state phi_i over the bound basis.  The field lies in the
xy-plane, so the z-reflection parity (l + mu) mod 2 is conserved: H has
exact zeros between the two parity classes and each class is solved on its
own, with LAPACK's divide-and-conquer solver (`syevd`, Gu & Eisenstat
1995), whose merges are BLAS-3 and use every BLAS thread.  Output is made
deterministic by fixing each column's sign so its largest-magnitude
component is positive.

A matrix that `assemble` built for one parity class is solved and stored
as that class alone: its energies, its sign-fixed vectors and the basis
positions of its states.  Every observable of a scan follows one initial
state and reads only that state's class, so a scan never holds a matrix
over the whole basis.  The position of a class's dressed state in the
spectrum of the whole basis (`global_index`) needs only the number of the
other class's levels below it, which that class's eigenvalues give.

A whole-basis matrix is solved class by class as well, and the vectors are
placed in one full-basis C, at the columns of their energies in the global
ascending order.  Symmetry and the zeros between the classes are checked
only for a matrix made outside `assemble`; one that couples the classes is
solved as one block.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, QuantumNumbers
from .errors import ConfigurationError, ConvergenceError
from .hamiltonian import LaserField, PseudoHamiltonianMatrix, assemble

DEGENERACY_GAP = 1e-10

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EigenDecomposition:
    """Pseudo-energies and real dressed-state coefficients.

    coefficients[k, i] = C of basis state positions[k] in dressed state i;
    positions None means every basis state, in basis order, and then C is
    orthogonal.  A decomposition of one parity class holds only that
    class's states and dressed states, and reading a state of the other
    class raises.  block_labels[i] names the diagonal block dressed state i
    was solved in; None means one block.  include_a2 records whether the
    energies carry the A^2/2 constant.
    """

    energies: np.ndarray
    coefficients: np.ndarray
    basis: BasisSet
    block_labels: np.ndarray = None
    positions: np.ndarray = None
    include_a2: bool = True

    @property
    def dimension(self) -> int:
        return len(self.energies)

    @property
    def rows(self) -> np.ndarray:
        """Basis positions of the rows of coefficients."""
        if self.positions is None:
            return np.arange(len(self.basis))
        return self.positions

    @property
    def parity(self):
        """(l + mu) % 2 of the class held, or None for the whole basis."""
        if self.positions is None:
            return None
        state = self.basis.states[self.positions[0]]
        return (state.l + state.mu) % 2

    def row(self, state: QuantumNumbers) -> np.ndarray:
        """Coefficients of bare state `state` in every dressed state."""
        if state not in self.basis:
            raise ConfigurationError(f"{state} not in basis (n0={self.basis.n0})")
        position = self.basis.position(state)
        if self.positions is None:
            return self.coefficients[position]
        k = int(np.searchsorted(self.positions, position))
        if k == len(self.positions) or self.positions[k] != position:
            raise ConfigurationError(
                f"state {state} lies in a parity class this decomposition "
                "does not hold; diagonalize the whole basis to read it"
            )
        return self.coefficients[k]

    def column(self, index: int) -> np.ndarray:
        """Coefficients of dressed state `index` over the rows."""
        if not 0 <= index < self.dimension:
            raise ConfigurationError(
                f"dressed state {index} not among the {self.dimension} held"
            )
        return self.coefficients[:, index]

    def level_gaps(self):
        """(i, E_j - E_i) for each level i with a next-higher level j of
        the same block, ascending in i.  States of different blocks cannot
        mix, so their spacings are not gaps."""
        if self.block_labels is None:
            return np.arange(self.dimension - 1), np.diff(self.energies)
        index, gaps = [], []
        for label in np.unique(self.block_labels):
            cols = np.nonzero(self.block_labels == label)[0]
            index.append(cols[:-1])
            gaps.append(np.diff(self.energies[cols]))
        index, gaps = np.concatenate(index), np.concatenate(gaps)
        order = np.argsort(index)
        return index[order], gaps[order]


@dataclass(frozen=True)
class TrackedState:
    """Dressed state continuously connected to a bare basis state."""

    index: int
    overlap: float  # squared coefficient of the target bare state
    ambiguous: bool  # True when the bare state is strongly mixed


def _parity_blocks(matrix: PseudoHamiltonianMatrix, check: bool):
    """Basis positions of each diagonal block of a whole-basis matrix.

    The two (l + mu) parity classes; with check, the whole basis as one
    block when an entry between the classes is not exactly zero.
    """
    parity = np.array([(s.l + s.mu) % 2 for s in matrix.basis.states])
    even, odd = np.nonzero(parity == 0)[0], np.nonzero(parity == 1)[0]
    if check and len(even) and len(odd) and matrix.entries[np.ix_(even, odd)].any():
        return [np.arange(matrix.dimension)]
    return [block for block in (even, odd) if len(block)]


def _solve_block(sub):
    """Eigenvalues and sign-fixed eigenvectors of the symmetric sub."""
    try:
        energies, vectors = np.linalg.eigh(sub)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    # Sign fix: largest-magnitude component of each column positive.
    pivot = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[pivot, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs
    return energies, vectors


def diagonalize(matrix: PseudoHamiltonianMatrix) -> EigenDecomposition:
    """Spectrum of the real symmetric pseudo-Hamiltonian.

    A matrix of one parity class gives the decomposition of that class;
    LAPACK works on a copy, so the matrix is left as it was.  A whole-basis
    matrix gives every class, with a full-basis C.
    """
    h = matrix.entries
    if matrix.positions is None:  # made outside assemble: check it here
        if not np.array_equal(h, h.T):
            raise ConfigurationError("pseudo-Hamiltonian matrix must be symmetric")
    elif len(matrix.positions) < len(matrix.basis):
        energies, vectors = _solve_block(h)
        return EigenDecomposition(
            energies=energies,
            coefficients=vectors,
            basis=matrix.basis,
            positions=matrix.positions,
            include_a2=matrix.include_a2,
        )
    blocks = _parity_blocks(matrix, check=matrix.positions is None)
    solved = [_solve_block(h[np.ix_(block, block)]) for block in blocks]
    # Column of every block eigenvalue in the global ascending order; the
    # stable sort keeps exact cross-block ties in block order.
    all_energies = np.concatenate([energies for energies, _ in solved])
    order = np.argsort(all_energies, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    coefficients = np.zeros((matrix.dimension, matrix.dimension))
    labels = np.empty(matrix.dimension, dtype=int)
    start = 0
    for label, (block, (energies, vectors)) in enumerate(zip(blocks, solved)):
        cols = column[start:start + len(energies)]
        coefficients[np.ix_(block, cols)] = vectors
        labels[cols] = label
        start += len(energies)
    return EigenDecomposition(
        energies=all_energies[order],
        coefficients=coefficients,
        basis=matrix.basis,
        block_labels=labels,
        include_a2=matrix.include_a2,
    )


def global_index(decomp: EigenDecomposition, index: int, laser: LaserField) -> int:
    """Position of dressed state `index` in the ascending spectrum of the
    whole basis at this field.

    For a decomposition of one parity class this is its rank in the class
    plus the number of the other class's levels below E_i.  A level equal
    to E_i counts as below when the other class is the even one, which is
    where a whole-basis solve puts such a tie.
    """
    parity = decomp.parity
    if parity is None:
        return index
    other = assemble(decomp.basis, laser, decomp.include_a2, parity=1 - parity)
    if other.dimension == 0:
        return index
    levels = np.linalg.eigvalsh(other.entries)
    e_i = decomp.energies[index]
    below = levels <= e_i if parity == 1 else levels < e_i
    return index + int(np.count_nonzero(below))


def track_state(
    decomp: EigenDecomposition, target: QuantumNumbers
) -> TrackedState:
    """Dressed state with maximal overlap on the bare target state.

    Ties are broken toward lower pseudo-energy.  Overlap below 0.5 marks
    the assignment as ambiguous (state strongly mixed), which is logged at
    INFO.
    """
    row = decomp.row(target) ** 2
    best = int(np.argmax(row))  # argmax returns the first (lowest-energy) max
    overlap = float(row[best])
    ambiguous = overlap < 0.5
    if ambiguous:
        _log.info("state %s is strongly mixed (max overlap %.3f)", target, overlap)
    return TrackedState(index=best, overlap=overlap, ambiguous=ambiguous)
