"""Symmetric eigendecomposition of the pseudo-Hamiltonian, one parity class.

Produces the pseudo-energies E_i (ascending) and the real coefficients of
each dressed state phi_i over the bound basis.  The field lies in the
xy-plane, so the z-reflection parity (l + mu) mod 2 is conserved: H has
exact zeros between the two parity classes, and `assemble` builds one class.
`diagonalize` solves it with LAPACK's divide-and-conquer solver (`syevd`,
Gu & Eisenstat 1995), whose merges are BLAS-3 and use every BLAS thread.
A column's sign is whatever the solver returns: every observable reads
squares of a column or products of two entries of one column.

A decomposition holds one class: its energies, its vectors and,
through the basis and the parity, the basis positions of its states.  Every
observable of a scan follows one initial state and reads only that state's
class.  The position of a class's dressed state in the spectrum of the
whole basis needs only the number of the other class's levels below it,
which `levels_below` counts without a solve of that class.  Every class is
solved as `assemble` builds it, A^2/2 on the diagonal: the constant moves
all levels of both classes alike, so no state, fold or count depends on it.

Photoionization reads one dressed state, the one tracked from the initial
bare state: of the dressed states of its class, the one with the largest
overlap on it.  `track_state` finds it without a full solve.  p_x
changes mu by one, so H - rho folds exactly onto the mu half of the class
that holds the initial state (Loewdin partitioning).  Rayleigh-quotient
iteration on that half finds the state.  It starts from the Ritz vector
of largest weight on the bare state in a Davidson subspace grown from that
state by three steps (Davidson, J. Comput. Phys. 17, 87 (1975)): started
from the bare state alone, it can flip between two states that share it,
as at a one-photon resonance.  Sylvester's law of inertia counts the
levels below it in both classes (Parlett, The Symmetric Eigenvalue
Problem, ch. 4), from the signs of the eigenvalues of a folded matrix S.
Most counts read those signs from the diagonal of S: where the
Gershgorin discs of S, scaled to a unit diagonal, leave out 0, and
Ostrowski's bound puts every eigenvalue the count reads outside the sign
guard that `eigvalsh` of S is held to, the discs certify the count that
`eigvalsh` would give; elsewhere `eigvalsh` gives it.  The other class
is folded onto its mu-even half; a count of it that the guard leaves
unsure, as at a bare level of its mu-odd half or at an exact tie with E_i,
comes from `eigvalsh` of that class (`levels_below`).  The positions and
p_x values of the couplings between the two halves are kept once per
basis and class.  The solve is one flow: the fold's attempt; where the
fold cannot certify the state, `diagonalize` solves the class, the column
of largest overlap on the initial state is picked and the iteration
restarts from it; then the column is placed in class order and its
position counted.  It returns that one state as a decomposition of a
single column, with its overlap on the initial state and its position.
A caller that holds a whole class from `diagonalize` picks the same state
as the argmax of `decomp.row(initial) ** 2`.

Only matrices that `assemble` built are solved: they are symmetric by
construction and read-only, and a writeable matrix, or one not of its
class's size, raises ConfigurationError.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, QuantumNumbers, class_layout
from .errors import ConfigurationError, ConvergenceError
from .hamiltonian import PseudoHamiltonianMatrix, assemble, class_diagonal

DEGENERACY_GAP = 1e-10

_EPS = np.finfo(float).eps
_RQI_STEPS = 30  # Rayleigh-quotient steps before the class solve takes over
_RITZ_STEPS = 3  # Davidson steps that grow the subspace of RQI's start
_RESIDUAL_TOL = 1e3 * _EPS  # |H x - rho x| against the size of H
_SIGN_GUARD = 1e6 * _EPS  # a counted sign closer to 0 than this is unsure
_DISC_ROUNDING = 8  # eigvalsh's rounding of an eigenvalue, in len(S) eps |S|
# levels of two classes this close, in max(1, |rho|, max |level| of the
# class), tie: eigvalsh rounds every level to about eps times the largest
_TIE = 16 * _EPS
# the least size a sign guard scales with: its guard is then never below
# _TIE, the tie window of a rho and a class whose levels all lie within 1
# of 0, so a count never orders levels that tie
_GUARD_FLOOR = _TIE / _SIGN_GUARD

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EigenDecomposition:
    """Pseudo-energies and real dressed-state coefficients of one parity
    class.

    coefficients[k, j] = C of basis state rows[k] in dressed state j, and
    energies[j] is that state's pseudo-energy, where rows are the basis
    positions of the class `parity`; C is orthogonal when it holds every
    dressed state of the class, as `diagonalize` returns it.  The single
    column of `track_state` answers `energy` and `column` and no `row`.
    Reading a state of the other class raises.
    """

    energies: np.ndarray
    coefficients: np.ndarray
    basis: BasisSet
    parity: int

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
        if self.dimension != len(rows):
            raise ConfigurationError(
                f"this decomposition holds {self.dimension} of the "
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
        if not 0 <= index < self.dimension:
            raise ConfigurationError(
                f"dressed state {index} not among the {self.dimension} held"
            )
        return index

    def energy(self, index: int) -> float:
        """Pseudo-energy of dressed state `index`."""
        return float(self.energies[self._held(index)])

    def column(self, index: int) -> np.ndarray:
        """Coefficients of dressed state `index` over the rows."""
        return self.coefficients[:, self._held(index)]


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
    return EigenDecomposition(energies, vectors, matrix.basis, matrix.parity)


# --- the tracked state alone, on one mu half of its class -----------------

def _halves(basis, laser, parity, row):
    """(rows_k, d_k, rows_x, d_x, C) of the class `parity`: the rows and
    diagonal of the mu half k that holds class row `row` (the even half for
    row -1, no row) and of the other half x, and the block C of H between
    them, k rows by x columns."""
    diagonal = class_diagonal(basis, laser, parity)
    even, odd, r, c, p_x = class_layout(basis, parity)
    block = np.zeros((len(even), len(odd)))
    block[r, c] = laser.amplitude_A * p_x
    if row in odd:
        return odd, diagonal[odd], even, diagonal[even], block.T
    return even, diagonal[even], odd, diagonal[odd], block


def _fold(d_k, d_x, c, rho):
    """S(rho) = (D_k - rho) - C (D_x - rho)^-1 C^T and (D_x - rho)^-1."""
    w = 1.0 / (d_x - rho)
    s = (c * w) @ c.T
    np.negative(s, out=s)
    s.flat[:: len(d_k) + 1] += d_k - rho  # the diagonal
    return s, w


def _levels_below(d_k, d_x, c, rho, x_k):
    """Number of levels of H = [[D_k, C], [C^T, D_x]] below rho by
    Sylvester's law of inertia, #(d_x < rho) + #(eig S(rho) < 0).  x_k is
    None, or the k half of an eigenvector of H at rho, whose level is left
    out.  None unless exactly that many eigenvalues of S (1 with x_k, else
    0), and no d_x - rho, lie within the guard of 0.

    Gershgorin discs (`_disc_negatives`) give the count without a solve
    where they certify that `eigvalsh` of S would read the same signs;
    otherwise `eigvalsh` reads them.
    """
    scale = max(np.abs(d_x).max(initial=0.0), abs(rho), _GUARD_FLOOR)
    if (np.abs(d_x - rho) <= _SIGN_GUARD * scale).any():
        return None  # before the fold, which divides by each d_x - rho
    s, w = _fold(d_k, d_x, c, rho)
    # S is summed from terms up to this size (d_k - rho from d_k and rho)
    size = max(np.abs(d_k).max(), abs(rho), _GUARD_FLOOR) + (
        np.abs(c) @ (np.abs(w) * np.abs(c).sum(axis=0))
    ).max(initial=0.0)
    below = int(np.count_nonzero(d_x < rho))
    negative = _disc_negatives(s, x_k, size)
    if negative is not None:
        return below + negative
    mu = np.linalg.eigvalsh(s)
    at_zero = np.abs(mu) <= _SIGN_GUARD * size
    if np.count_nonzero(at_zero) != (x_k is not None):
        return None
    return below + int(np.count_nonzero(mu[~at_zero] < 0))


def _disc_negatives(s, x_k, size):
    """#(eig S < 0) read from the diagonal of S where Gershgorin discs
    certify it, else None.

    With x_k, a null vector of S, the one eigenvalue at 0 is left out of
    the count: row and column t = argmax |x_k| are dropped first, giving
    S'; without x_k, S' = S.  Scaled by q_i = |s_ii|^-1/2, Q S' Q has the
    inertia of S' (Sylvester) and a diagonal of signs.  Where every disc
    radius r_i = q_i sum_{j != i} |s_ij| q_j is below 1, no disc covers 0,
    and Q S' Q has as many negative eigenvalues as S' has negative s_ii
    (Gershgorin's component theorem).  Ostrowski's theorem puts every
    eigenvalue of S' at least (1 - max r) min |s_ii| from 0; by
    interlacing, as many of S lie beyond that bound on each side, and one
    more between, which |S x_k| / |x_k| bounds (Varga, Gersgorin and His
    Circles, 2004; Ostrowski, PNAS 45, 740 (1959)).

    The count is given only where the bound clears the guard _SIGN_GUARD *
    size and |S x_k| / |x_k| stays within it, each by more than `eigvalsh`'s
    rounding of an eigenvalue, about len(S) eps |S| <= len(S) eps size, and
    than the rounding of r: there `eigvalsh` of S reads the same signs and
    the same count at 0, and `_levels_below` the same count.
    """
    guard = _SIGN_GUARD * size
    slack = _DISC_ROUNDING * len(s) * _EPS * size
    kept = np.ones(len(s), dtype=bool)
    if x_k is not None:
        kept[np.argmax(np.abs(x_k))] = False
        if np.linalg.norm(s @ x_k) > (guard - slack) * np.linalg.norm(x_k):
            return None
    diagonal = s.diagonal()[kept]
    smallest = np.abs(diagonal).min(initial=math.inf)
    if not smallest > guard + slack:  # the test below fails too; no 1/0
        return None
    q = np.zeros(len(s))
    q[kept] = 1.0 / np.sqrt(np.abs(diagonal))
    off = np.abs(s)
    np.fill_diagonal(off, 0.0)
    radius = (q * (off @ q)).max(initial=0.0)
    if not (1.0 - radius) * smallest > guard + slack:
        return None
    return int(np.count_nonzero(diagonal < 0))


def _ritz_start(d_k, d_x, c, start):
    """The k and x halves of the Ritz vector of [[D_k, C], [C^T, D_x]] with
    the largest weight on unit vector `start` of the k half, in a Davidson
    subspace grown from that vector by _RITZ_STEPS steps.  Each step adds
    the correction (theta - diag H)^-1 (H x - theta x) of the current such
    Ritz pair (theta, x), exact zeros of theta - diag H replaced by eps,
    orthogonalized once against the subspace; the Ritz pairs are those of
    the projection of H on the subspace (Rayleigh-Ritz)."""
    n = len(d_k)
    diagonal = np.concatenate((d_k, d_x))

    def times_h(v):
        return np.concatenate((d_k * v[:n] + c @ v[n:], d_x * v[n:] + c.T @ v[:n]))

    v = np.zeros((len(diagonal), 1))
    v[start] = 1.0
    hv = times_h(v[:, 0])[:, None]
    while True:
        theta, y = np.linalg.eigh(v.T @ hv)
        j = int(np.argmax(np.abs(v[start] @ y)))
        x = v @ y[:, j]
        if v.shape[1] > _RITZ_STEPS:
            break
        gap = theta[j] - diagonal
        gap[gap == 0.0] = _EPS
        t = (hv @ y[:, j] - theta[j] * x) / gap
        t -= v @ (v.T @ t)
        norm = np.linalg.norm(t)
        if not 0.0 < norm < math.inf:
            break
        v = np.column_stack((v, t / norm))
        hv = np.column_stack((hv, times_h(v[:, -1])))
    return x[:n], x[n:]


def _rayleigh_quotient_iteration(d_k, d_x, c, x_k, x_x):
    """(rho, x_k, x_x) of the eigenpair of [[D_k, C], [C^T, D_x]] that
    Rayleigh-quotient iteration from the unit vector (x_k, x_x) reaches, or
    None within _RQI_STEPS or where rho equals a d_x exactly.  Each step
    solves (H - rho) y = x on the k half through S(rho) and the x half by
    back-substitution; it stops one step after the residual over the whole
    class first passes."""
    size = max(np.abs(d_k).max(initial=0.0), np.abs(d_x).max(initial=0.0)) + max(
        np.abs(c).sum(axis=1).max(initial=0.0), np.abs(c).sum(axis=0).max(initial=0.0)
    )
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
        if (d_x == rho).any():  # rho is a bare level of the x half: no fold
            return None
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


def track_state(basis, laser, target):
    """The dressed state tracked from bare state `target`: of the dressed
    states of its parity class, the one with the largest overlap on it,
    the lowest in energy of equal overlaps.  It is solved on half of the
    class.

    p_x changes mu by one, so inside a class every coupling joins a mu-even
    state to a mu-odd one and each half has a diagonal block D alone.  H -
    rho folds exactly onto the half k that holds `target` (Loewdin
    partitioning), S(rho) = (D_k - rho) - C (D_x - rho)^-1 C^T.  One flow
    in three steps:

    - the fold's attempt: Rayleigh-quotient iteration from the Ritz start
      of `target` (`_ritz_start`) solves with S; an overlap above 1/2 makes
      the vector reached the tracked state, since no other dressed state
      can hold half of a unit vector.  At A = 0 the start is the bare
      state itself, whose residual is exactly 0.  Sylvester's law of
      inertia on S counts the levels of this class below E_i (the class
      rank), reading the signs of S from its diagonal where scaled
      Gershgorin discs certify them, and from `eigvalsh` of S elsewhere
      (`_levels_below`); both give the same count.
    - where the iteration fails, the overlap is at most 1/2 or the class
      rank is unsure, `diagonalize` solves the class, and the column of
      largest overlap on `target` gives the state and its class rank; an
      overlap below 1/2 (the state strongly mixed) is logged at INFO.  The
      iteration restarts from that column, which stands only where the
      iteration fails or leaves the state.
    - placement: the column is scattered into class order, and
      `levels_below` adds the other class's count to the class rank.

    Returns (decomposition of that one state, its overlap on `target`, its
    position in the spectrum of the whole basis).  A target outside the
    basis raises ConfigurationError.
    """
    parity = target.parity
    row = int(np.searchsorted(basis.class_positions(parity), basis.position(target)))
    rows_k, d_k, rows_x, d_x, c = _halves(basis, laser, parity, row)
    start = int(np.searchsorted(rows_k, row))
    pair = _rayleigh_quotient_iteration(d_k, d_x, c, *_ritz_start(d_k, d_x, c, start))
    rank = None
    if pair is not None and pair[1][start] ** 2 > 0.5:
        rank = _levels_below(d_k, d_x, c, pair[0], pair[1])
    if rank is None:
        decomp = diagonalize(assemble(basis, laser, parity=parity))
        overlaps = decomp.row(target) ** 2
        rank = int(np.argmax(overlaps))  # the first (lowest-energy) of equal
        if overlaps[rank] < 0.5:
            _log.info("state %s is strongly mixed (max overlap %.3f)", target,
                      float(overlaps[rank]))
        x_k, x_x = decomp.column(rank)[rows_k], decomp.column(rank)[rows_x]
        pair = _rayleigh_quotient_iteration(d_k, d_x, c, x_k, x_x)
        if pair is None or not (pair[1] @ x_k + pair[2] @ x_x) ** 2 > 0.5:
            pair = decomp.energy(rank), x_k, x_x
    rho, x_k, x_x = pair
    column = np.empty(len(rows_k) + len(rows_x))
    column[rows_k], column[rows_x] = x_k, x_x
    one = EigenDecomposition(np.array([rho]), column[:, None], basis, parity)
    other = levels_below(basis, laser, 1 - parity, rho)
    return one, float(x_k[start] ** 2), rank + other


def levels_below(basis, laser, parity, rho):
    """Number of levels of the class `parity` below rho, the even class
    first in a tie: a level within _TIE * max(1, |rho|, max |level|) of
    rho, the largest level of the whole class, counts as below when
    `parity` is 0.  The window scales with the largest level because
    `eigvalsh` rounds each level to about eps times the largest one, not
    times the level itself.  So the count plus the rank of a level rho of
    the other class is its position in the whole spectrum.

    `_levels_below` counts, the mu-odd half folded away; where its guard
    leaves it unsure, as at a bare level of that half or at a tie on either
    side of which rho rounds, `eigvalsh` of the class counts.  n0 = 1 has
    no odd level.
    """
    if len(basis.class_positions(parity)) == 0:
        return 0
    _, d_even, _, d_odd, c = _halves(basis, laser, parity, -1)
    count = _levels_below(d_even, d_odd, c, rho, None)
    if count is None:
        levels = np.linalg.eigvalsh(assemble(basis, laser, parity=parity).entries)
        window = _TIE * max(1.0, abs(rho), np.abs(levels).max())
        count = np.count_nonzero(
            levels <= rho + window if parity == 0 else levels < rho - window
        )
    return int(count)
