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

Photoionization reads one dressed state, the one tracked from the initial
bare state, and `solve_tracked` finds it without a full solve.  p_x
changes mu by one, so H - rho folds exactly onto the mu half of the class
that holds the initial state (Loewdin partitioning).  Rayleigh-quotient
iteration on that half finds the state, and Sylvester's law of inertia
counts the levels below it in both classes (Parlett, The Symmetric
Eigenvalue Problem, ch. 4).  Where a result cannot be certified it
returns None, and the caller solves the class with `diagonalize`.

Only matrices that `assemble` built are solved: they are symmetric by
construction and read-only, and a writeable matrix, or one not of its
class's size, raises ConfigurationError.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, QuantumNumbers
from .errors import ConfigurationError, ConvergenceError
from .hamiltonian import LaserField, PseudoHamiltonianMatrix, assemble, class_terms

DEGENERACY_GAP = 1e-10

_EPS = np.finfo(float).eps
_RQI_STEPS = 30  # Rayleigh-quotient steps before the full solve takes over
_RESIDUAL_TOL = 1e3 * _EPS  # |H x - rho x| against the size of H
_SIGN_GUARD = 1e6 * _EPS  # a counted sign closer to 0 than this is unsure

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EigenDecomposition:
    """Pseudo-energies and real dressed-state coefficients of one parity
    class, or of a run of its dressed states.

    coefficients[k, j] = C of basis state rows[k] in dressed state
    first + j, and energies[j] is that state's pseudo-energy, where rows
    are the basis positions of the class `parity`; over the whole class
    (first = 0, as `diagonalize` returns it) C is orthogonal.  A partial
    decomposition, such as the one state of `solve_tracked`, answers
    `energy` and `column` for the states it holds and nothing that needs
    them all.  Reading a state of the other class raises.  include_a2
    records whether the energies carry the A^2/2 constant.
    """

    energies: np.ndarray
    coefficients: np.ndarray
    basis: BasisSet
    parity: int
    include_a2: bool = True
    first: int = 0

    @property
    def dimension(self) -> int:
        """Number of dressed states held."""
        return len(self.energies)

    @property
    def rows(self) -> np.ndarray:
        """Basis positions of the rows of coefficients."""
        return self.basis.class_positions(self.parity)

    def row(self, state: QuantumNumbers) -> np.ndarray:
        """Coefficients of bare state `state` in every dressed state."""
        rows = self.rows
        if self.first != 0 or self.dimension != len(rows):
            raise ConfigurationError(
                f"a partial decomposition holds {self.dimension} of the "
                f"{len(rows)} dressed states; diagonalize the class to read a row"
            )
        position = self.basis.position(state)
        k = int(np.searchsorted(rows, position))
        if k == len(rows) or rows[k] != position:
            raise ConfigurationError(
                f"state {state} lies in a parity class this decomposition "
                "does not hold; assemble and diagonalize its class to read it"
            )
        return self.coefficients[k]

    def _held(self, index: int) -> int:
        if not 0 <= index - self.first < self.dimension:
            raise ConfigurationError(
                f"dressed state {index} not among the {self.dimension} held"
            )
        return index - self.first

    def energy(self, index: int) -> float:
        """Pseudo-energy of dressed state `index`."""
        return float(self.energies[self._held(index)])

    def column(self, index: int) -> np.ndarray:
        """Coefficients of dressed state `index` over the rows."""
        return self.coefficients[:, self._held(index)]

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
    e_i = decomp.energy(index)
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


# --- the tracked state alone, on one mu half of its class -----------------

def _halves(basis, laser, include_a2, parity):
    """(rows, diagonal) of the even and of the odd mu half of the class
    `parity`, and the block C of H between them (even rows, odd columns)."""
    diagonal, rows, cols, values = class_terms(basis, laser, include_a2, parity)
    even, odd = basis.class_halves(parity)
    in_half = np.empty(len(diagonal), dtype=np.intp)
    in_half[even] = np.arange(len(even))
    in_half[odd] = np.arange(len(odd))
    is_odd = np.zeros(len(diagonal), dtype=bool)
    is_odd[odd] = True
    flip = is_odd[rows]  # listed odd first: swap to (even, odd)
    block = np.zeros((len(even), len(odd)))
    block[in_half[np.where(flip, cols, rows)],
          in_half[np.where(flip, rows, cols)]] = values
    return (even, diagonal[even]), (odd, diagonal[odd]), block


def _fold(d_k, d_x, c, rho):
    """S(rho) = (D_k - rho) - C (D_x - rho)^-1 C^T and (D_x - rho)^-1."""
    w = 1.0 / (d_x - rho)
    s = (c * w) @ c.T
    np.negative(s, out=s)
    s.flat[:: len(d_k) + 1] += d_k - rho  # the diagonal
    return s, w


def _levels_below(d_k, d_x, c, rho, at_rho):
    """Number of levels of H = [[D_k, C], [C^T, D_x]] below rho by
    Sylvester's law of inertia, #(d_x < rho) + #(eig S(rho) < 0), with
    `at_rho` (0 or 1) levels of H at rho left out; None unless exactly
    `at_rho` eigenvalues of S, and no d_x - rho, lie within the guard of 0.
    """
    s, w = _fold(d_k, d_x, c, rho)
    mu = np.linalg.eigvalsh(s)
    # S is summed from terms up to this size, and rounded on that scale
    size = np.abs(d_k - rho).max() + (
        np.abs(c) @ (np.abs(w) * np.abs(c).sum(axis=0))
    ).max(initial=0.0)
    at_zero = np.abs(mu) <= _SIGN_GUARD * size
    scale = max(np.abs(d_x).max(initial=0.0), abs(rho))
    if np.count_nonzero(at_zero) != at_rho or (
        np.abs(d_x - rho) <= _SIGN_GUARD * scale
    ).any():
        return None
    return int(np.count_nonzero(d_x < rho) + np.count_nonzero(mu[~at_zero] < 0))


def _rayleigh_quotient_iteration(d_k, d_x, c, start):
    """(rho, x_k, x_x) of the eigenpair of [[D_k, C], [C^T, D_x]] that
    Rayleigh-quotient iteration from unit vector `start` of the k half
    reaches, or None within _RQI_STEPS.  Each step solves (H - rho) y = x
    on the k half through S(rho) and the x half by back-substitution; it
    stops one step after the residual over the whole class first passes."""
    size = max(np.abs(d_k).max(initial=0.0), np.abs(d_x).max(initial=0.0)) + max(
        np.abs(c).sum(axis=1).max(initial=0.0), np.abs(c).sum(axis=0).max(initial=0.0)
    )
    x_k, x_x = np.zeros(len(d_k)), np.zeros(len(d_x))
    x_k[start] = 1.0
    passed = False
    for _ in range(_RQI_STEPS):
        h_k, h_x = d_k * x_k + c @ x_x, d_x * x_x + c.T @ x_k
        rho = float(x_k @ h_k + x_x @ h_x)
        residual = math.hypot(
            np.linalg.norm(h_k - rho * x_k), np.linalg.norm(h_x - rho * x_x)
        )
        if residual <= _RESIDUAL_TOL * size:
            if passed or residual == 0.0:
                return rho, x_k, x_x
            passed = True
        s, w = _fold(d_k, d_x, c, rho)
        try:
            y_k = np.linalg.solve(s, x_k - c @ (w * x_x))
        except np.linalg.LinAlgError:
            return None
        y_x = w * (x_x - c.T @ y_k)
        norm = math.hypot(np.linalg.norm(y_k), np.linalg.norm(y_x))
        if not 0.0 < norm < math.inf:
            return None
        x_k, x_x = y_k / norm, y_x / norm
    return None


def solve_tracked(basis, laser, target, include_a2):
    """The dressed state tracked from bare state `target`, solved on half
    of its parity class, or None where the result cannot be certified.

    p_x changes mu by one, so inside a class every coupling joins a mu-even
    state to a mu-odd one and each half has a diagonal block D alone.  H -
    rho folds exactly onto the half k that holds `target` (Loewdin
    partitioning), S(rho) = (D_k - rho) - C (D_x - rho)^-1 C^T.
    Rayleigh-quotient iteration from `target` solves with S; an overlap
    above 1/2 makes the vector reached the one `track_state` picks, since
    no other dressed state can hold half of a unit vector.  Sylvester's law
    of inertia on S counts the levels below E_i: in this class (the class
    rank) and, folding whichever half of the other class has no bare level
    near E_i, in the other class (`global_index` without a solve of it).

    Returns (decomposition holding that one state, TrackedState, position
    in the spectrum of the whole basis), or None at A = 0, without
    convergence, at overlap <= 1/2, or if a sign the count reads lies
    within _SIGN_GUARD of zero, which covers exact ties.
    """
    if laser.amplitude_A == 0.0:
        return None
    parity = target.parity
    even, odd, c = _halves(basis, laser, include_a2, parity)
    target_row = int(np.searchsorted(basis.class_positions(parity),
                                     basis.position(target)))
    if target_row in even[0]:
        (rows_k, d_k), (rows_x, d_x) = even, odd
    else:
        (rows_k, d_k), (rows_x, d_x), c = odd, even, c.T
    start = int(np.searchsorted(rows_k, target_row))
    pair = _rayleigh_quotient_iteration(d_k, d_x, c, start)
    if pair is None:
        return None
    rho, x_k, x_x = pair
    overlap = float(x_k[start] ** 2)
    if not overlap > 0.5:
        return None
    rank = _levels_below(d_k, d_x, c, rho, at_rho=1)
    other = _other_levels_below(basis, laser, include_a2, 1 - parity, rho)
    if rank is None or other is None:
        return None
    column = np.empty(len(d_k) + len(d_x))
    column[rows_k], column[rows_x] = x_k, x_x
    if column[np.argmax(np.abs(column))] < 0:  # the sign rule of diagonalize
        column = -column
    decomp = EigenDecomposition(
        np.array([rho]), column[:, None], basis, parity, include_a2, rank
    )
    return decomp, TrackedState(rank, overlap, False), rank + other


def _other_levels_below(basis, laser, include_a2, parity, rho):
    """Levels of the class `parity` below rho, folding away the half whose
    bare levels lie farthest from rho; None if the count is unsure."""
    if len(basis.class_positions(parity)) == 0:
        return 0
    even, odd, c = _halves(basis, laser, include_a2, parity)

    def gap(d):
        return np.abs(d - rho).min(initial=math.inf)

    if gap(even[1]) >= gap(odd[1]):
        return _levels_below(odd[1], even[1], c.T, rho, at_rho=0)
    return _levels_below(even[1], odd[1], c, rho, at_rho=0)
