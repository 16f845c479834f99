"""Symmetric eigendecomposition of the pseudo-Hamiltonian, one parity class.

Produces the pseudo-energies E_i (ascending) and the real coefficients of
each dressed state phi_i over the bound basis.  The field lies in the
xy-plane, so the z-reflection parity (l + mu) mod 2 is conserved: H has
exact zeros between the two parity classes, and `assemble` builds one class.
`diagonalize` solves it with LAPACK's divide-and-conquer solver (`syevd`,
Gu & Eisenstat 1995), whose merges are BLAS-3 and use every BLAS thread.
Output is made deterministic by fixing each column's sign so its
largest-magnitude component is positive.

A decomposition holds one class: its energies, its sign-fixed vectors and,
through the basis and the parity, the basis positions of its states.  Every
observable of a scan follows one initial state and reads only that state's
class.  The position of a class's dressed state in the spectrum of the
whole basis (`global_index`) needs only the number of the other class's
levels below it, which that class's eigenvalues give.

Only matrices that `assemble` built are solved: they are symmetric by
construction and read-only, and a writeable matrix, or one not of its
class's size, raises ConfigurationError.
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
    """Pseudo-energies and real dressed-state coefficients of one parity
    class.

    coefficients[k, i] = C of basis state rows[k] in dressed state i, where
    rows are the basis positions of the class `parity`; C is orthogonal.
    Reading a state of the other class raises.  include_a2 records whether
    the energies carry the A^2/2 constant.
    """

    energies: np.ndarray
    coefficients: np.ndarray
    basis: BasisSet
    parity: int
    include_a2: bool = True

    @property
    def dimension(self) -> int:
        return len(self.energies)

    @property
    def rows(self) -> np.ndarray:
        """Basis positions of the rows of coefficients."""
        return self.basis.class_positions(self.parity)

    def row(self, state: QuantumNumbers) -> np.ndarray:
        """Coefficients of bare state `state` in every dressed state."""
        position = self.basis.position(state)
        rows = self.rows
        k = int(np.searchsorted(rows, position))
        if k == len(rows) or rows[k] != position:
            raise ConfigurationError(
                f"state {state} lies in a parity class this decomposition "
                "does not hold; assemble and diagonalize its class to read it"
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
        """(i, E_{i+1} - E_i) for each level i but the highest, ascending
        in i.  The levels of one class can mix, so each spacing is a gap."""
        return np.arange(self.dimension - 1), np.diff(self.energies)


@dataclass(frozen=True)
class TrackedState:
    """Dressed state continuously connected to a bare basis state."""

    index: int
    overlap: float  # squared coefficient of the target bare state
    ambiguous: bool  # True when the bare state is strongly mixed


def diagonalize(matrix: PseudoHamiltonianMatrix) -> EigenDecomposition:
    """Spectrum of the real symmetric pseudo-Hamiltonian of one class.

    LAPACK works on a copy, so the matrix is left as it was.  Entries that
    are writeable, or not square of the class's size, were not built by
    `assemble` and raise ConfigurationError.
    """
    h = matrix.entries
    size = len(matrix.basis.class_positions(matrix.parity))
    if h.flags.writeable or h.shape != (size, size):
        raise ConfigurationError(
            "diagonalize solves only matrices built by assemble: entries "
            f"must be read-only and {size} x {size}, got "
            f"{'writeable' if h.flags.writeable else 'read-only'} {h.shape}"
        )
    try:
        energies, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    # Sign fix: largest-magnitude component of each column positive.
    pivot = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[pivot, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs
    return EigenDecomposition(
        energies, vectors, matrix.basis, matrix.parity, matrix.include_a2
    )


def global_index(decomp: EigenDecomposition, index: int, laser: LaserField) -> int:
    """Position of dressed state `index` in the ascending spectrum of the
    whole basis at this field.

    This is its rank in the class plus the number of the other class's
    levels below E_i; an empty other class (n0 = 1) has none.  In a tie
    the even class comes first: a level equal to E_i counts as below when
    the other class is the even one.
    """
    other = 1 - decomp.parity
    if len(decomp.basis.class_positions(other)) == 0:
        return index
    levels = np.linalg.eigvalsh(
        assemble(decomp.basis, laser, decomp.include_a2, parity=other).entries
    )
    e_i = decomp.energies[index]
    below = levels <= e_i if other == 0 else levels < e_i
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
