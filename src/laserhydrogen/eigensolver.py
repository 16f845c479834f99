"""Symmetric eigendecomposition of the pseudo-Hamiltonian, block by block.

Produces the pseudo-energies E_i (ascending) and the real coefficient
matrix C, column i holding the expansion of the dressed state phi_i over
the bound basis.  The field lies in the xy-plane, so the z-reflection
parity (l + mu) mod 2 is conserved: the assembled matrix has exact zeros
between the two parity classes and each class is solved on its own.
The blocks' eigenvectors are written into one full-basis C, at the
columns of their energies in the global ascending order, so a dressed
state never mixes the two classes.  A matrix that does couple the classes
is solved as one block.  Output is made deterministic by fixing each
column's sign so its largest-magnitude component is positive.

Every block goes to LAPACK's divide-and-conquer solver (`syevd`,
Gu & Eisenstat 1995), whose merges are BLAS-3 and use every BLAS thread.
Each extracted block is handed over as its transpose: the block is
symmetric, so the Fortran-ordered view holds the same matrix and scipy
works on it in place instead of copying it.  Every observable of a scan
follows one initial state and reads only that state's block, so
`diagonalize(matrix, vectors_for=state)` computes eigenvectors for that
block alone and only the eigenvalues of the other one, which still give
the global dressed-state order and the near-degeneracy check.  Reading a
basis state or dressed state of a block solved without vectors raises
ConfigurationError.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import BasisSet, QuantumNumbers
from .errors import ConfigurationError, ConvergenceError
from .hamiltonian import PseudoHamiltonianMatrix

DEGENERACY_GAP = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Pseudo-energies and real dressed-state coefficients.

    coefficients[j, i] = C of basis state j in dressed state i; columns are
    orthonormal and rows are orthonormal (C is orthogonal).  block_labels[i]
    names the diagonal block dressed state i was solved in (its parity
    class) and state_labels[j] the block of basis state j; None means the
    whole basis is one block.  vector_blocks holds the labels of the blocks
    solved with eigenvectors (None: all of them); the columns of any other
    block are zero, and row, column and block_of refuse to read them.
    """

    energies: np.ndarray
    coefficients: np.ndarray
    basis: BasisSet
    block_labels: np.ndarray = None
    state_labels: np.ndarray = None
    vector_blocks: frozenset = None

    @property
    def dimension(self) -> int:
        return len(self.energies)

    def _require_vectors(self, label, what):
        if self.vector_blocks is not None and label not in self.vector_blocks:
            raise ConfigurationError(
                f"{what} lies in a block solved without eigenvectors; "
                "diagonalize with vectors_for in that block or None"
            )

    def block_of(self, state: QuantumNumbers):
        """(basis positions, dressed-state columns) of the block of state."""
        if state not in self.basis:
            raise ConfigurationError(f"{state} not in basis (n0={self.basis.n0})")
        everything = np.arange(self.dimension)
        if self.state_labels is None:
            return everything, everything
        label = self.state_labels[self.basis.position(state)]
        self._require_vectors(label, f"state {state}")
        return (
            np.nonzero(self.state_labels == label)[0],
            np.nonzero(self.block_labels == label)[0],
        )

    def row(self, state: QuantumNumbers) -> np.ndarray:
        """Coefficients of bare state `state` in every dressed state."""
        self.block_of(state)
        return self.coefficients[self.basis.position(state), :]

    def column(self, index: int) -> np.ndarray:
        """Coefficients of dressed state `index` over the basis."""
        if self.block_labels is not None:
            self._require_vectors(self.block_labels[index], f"dressed state {index}")
        return self.coefficients[:, index]

    def near_degenerate_pairs(self, gap: float = DEGENERACY_GAP):
        """Indices i whose next-higher state of the same block lies closer
        than gap.  States of different blocks cannot mix, so their
        crossings are exact and are not reported."""
        if self.block_labels is None:
            return np.nonzero(np.diff(self.energies) < gap)[0]
        pairs = []
        for label in np.unique(self.block_labels):
            cols = np.nonzero(self.block_labels == label)[0]
            pairs.append(cols[:-1][np.diff(self.energies[cols]) < gap])
        return np.sort(np.concatenate(pairs))


@dataclass(frozen=True)
class TrackedState:
    """Dressed state continuously connected to a bare basis state."""

    index: int
    overlap: float  # squared coefficient of the target bare state
    ambiguous: bool  # True when the bare state is strongly mixed


def _parity_blocks(matrix: PseudoHamiltonianMatrix):
    """Basis positions of each diagonal block of the matrix.

    The two (l + mu) parity classes when the entries between them are all
    exactly zero, otherwise the whole basis as one block.
    """
    parity = np.array([(s.l + s.mu) % 2 for s in matrix.basis.states])
    even, odd = np.nonzero(parity == 0)[0], np.nonzero(parity == 1)[0]
    if len(even) and len(odd) and matrix.entries[np.ix_(even, odd)].any():
        return [np.arange(matrix.dimension)]
    return [block for block in (even, odd) if len(block)]


def _solve_block(h, block, with_vectors):
    """Eigenvalues (and sign-fixed eigenvectors) of h restricted to block."""
    # The extracted block is C-ordered and symmetric, so its transpose is
    # the same matrix in Fortran order, which LAPACK overwrites uncopied.
    sub = h[np.ix_(block, block)].T
    try:
        result = scipy.linalg.eigh(
            sub, eigvals_only=not with_vectors, overwrite_a=True, driver="evd"
        )
    except scipy.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    if not with_vectors:
        return result, None
    energies, vectors = result
    # Sign fix: largest-magnitude component of each column positive.
    pivot = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[pivot, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs
    return energies, vectors


def diagonalize(
    matrix: PseudoHamiltonianMatrix, vectors_for: QuantumNumbers = None
) -> EigenDecomposition:
    """Spectrum of the real symmetric pseudo-Hamiltonian.

    With vectors_for=None every block is solved with eigenvectors.  With a
    basis state, only the block containing it gets eigenvectors; the other
    block's columns of C stay zero and reading them raises.
    """
    h = matrix.entries
    if not np.array_equal(h, h.T):
        raise ConfigurationError("pseudo-Hamiltonian matrix must be symmetric")
    blocks = _parity_blocks(matrix)
    state_labels = np.empty(matrix.dimension, dtype=int)
    for label, block in enumerate(blocks):
        state_labels[block] = label
    if vectors_for is None:
        vector_blocks = frozenset(range(len(blocks)))
    elif vectors_for in matrix.basis:
        vector_blocks = frozenset(
            {int(state_labels[matrix.basis.position(vectors_for)])}
        )
    else:
        raise ConfigurationError(
            f"{vectors_for} not in basis (n0={matrix.basis.n0})"
        )
    solved = [
        _solve_block(h, block, label in vector_blocks)
        for label, block in enumerate(blocks)
    ]
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
        if vectors is not None:
            coefficients[np.ix_(block, cols)] = vectors
        labels[cols] = label
        start += len(energies)
    return EigenDecomposition(
        energies=all_energies[order],
        coefficients=coefficients,
        basis=matrix.basis,
        block_labels=labels,
        state_labels=state_labels,
        vector_blocks=vector_blocks,
    )


def track_state(
    decomp: EigenDecomposition, target: QuantumNumbers
) -> TrackedState:
    """Dressed state with maximal overlap on the bare target state.

    Ties are broken toward lower pseudo-energy.  Overlap below 0.5 marks
    the assignment as ambiguous (state strongly mixed).
    """
    row = decomp.row(target) ** 2
    best = int(np.argmax(row))  # argmax returns the first (lowest-energy) max
    overlap = float(row[best])
    ambiguous = overlap < 0.5
    if ambiguous:
        warnings.warn(
            f"state {target} is strongly mixed (max overlap {overlap:.3f})",
            stacklevel=2,
        )
    return TrackedState(index=best, overlap=overlap, ambiguous=ambiguous)
