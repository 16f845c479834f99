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
    class); None means the whole basis is one block.
    """

    energies: np.ndarray
    coefficients: np.ndarray
    basis: BasisSet
    block_labels: np.ndarray = None

    @property
    def dimension(self) -> int:
        return len(self.energies)

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


def diagonalize(matrix: PseudoHamiltonianMatrix) -> EigenDecomposition:
    """Full spectrum of the real symmetric pseudo-Hamiltonian."""
    h = matrix.entries
    if not np.array_equal(h, h.T):
        raise ConfigurationError("pseudo-Hamiltonian matrix must be symmetric")
    blocks = _parity_blocks(matrix)
    solved = []
    for block in blocks:
        try:
            energies, vectors = scipy.linalg.eigh(
                h[np.ix_(block, block)], overwrite_a=True
            )
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover
            raise ConvergenceError(f"eigensolver failed: {exc}") from exc
        # Sign fix: largest-magnitude component of each column positive.
        pivot = np.argmax(np.abs(vectors), axis=0)
        signs = np.sign(vectors[pivot, np.arange(vectors.shape[1])])
        signs[signs == 0] = 1.0
        vectors *= signs
        solved.append((energies, vectors))
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
    )


def track_state(
    decomp: EigenDecomposition, target: QuantumNumbers
) -> TrackedState:
    """Dressed state with maximal overlap on the bare target state.

    Ties are broken toward lower pseudo-energy.  Overlap below 0.5 marks
    the assignment as ambiguous (state strongly mixed).
    """
    if target not in decomp.basis:
        raise ConfigurationError(f"{target} not in basis (n0={decomp.basis.n0})")
    row = decomp.coefficients[decomp.basis.position(target), :] ** 2
    best = int(np.argmax(row))  # argmax returns the first (lowest-energy) max
    overlap = float(row[best])
    ambiguous = overlap < 0.5
    if ambiguous:
        warnings.warn(
            f"state {target} is strongly mixed (max overlap {overlap:.3f})",
            stacklevel=2,
        )
    return TrackedState(index=best, overlap=overlap, ambiguous=ambiguous)
