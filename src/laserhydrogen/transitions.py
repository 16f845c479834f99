"""Bound-bound transition probabilities and parameter scans.

The observed (time-averaged) probability of finding the atom in |b> after
starting in |a> is W(a,b) = sum_i C_a(i)^2 C_b(i)^2; orthogonality of the
coefficient matrix makes the full W doubly stochastic.  The instantaneous
probability before averaging is the multi-periodic
|sum_i C_a(i) C_b(i) e^{-i(E_i - mu_b omega) t}|^2.

Every sweep, the library scans and the command line alike, runs through
`scan`, which observes one field point after another and yields one record
per point, a `ScanPoint` (W table) or an `ionization.IonizationScanPoint`,
failed points included.  W out of the initial state is exactly 0 outside
its parity class, so a `ScanPoint` assembles and solves that class alone;
an ionization point reads one dressed state of it.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet, QuantumNumbers, enumerate_basis
from .eigensolver import DEGENERACY_GAP, EigenDecomposition, diagonalize
from .errors import ConfigurationError
from .hamiltonian import LaserField, assemble


@dataclass(frozen=True)
class TransitionTable:
    """Time-averaged probabilities out of one initial state."""

    initial: QuantumNumbers
    basis: BasisSet
    probabilities: np.ndarray  # aligned with basis.states
    laser: LaserField

    def probability(self, final: QuantumNumbers) -> float:
        return float(self.probabilities[self.basis.position(final)])

    def as_dict(self) -> dict:
        return dict(zip(self.basis.states, self.probabilities.tolist()))


@dataclass(frozen=True)
class PointFailure:
    """Why a scan point failed: the exception's message, its type name and
    the module.function of the frame that raised it, as strings only (its
    traceback would keep the point's decomposition alive)."""

    error: str
    type: str
    where: str

    @classmethod
    def of(cls, exc: BaseException) -> "PointFailure":
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        frame = tb.tb_frame
        where = f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}"
        return cls(str(exc), type(exc).__name__, where)


@dataclass(frozen=True)
class ScanRecord:
    """What `scan` yields per point: its axis value and, if the point
    raised, its failure (None for a computed point)."""

    axis_value: float  # swept parameter in I/O units
    failure: PointFailure = field(default=None, kw_only=True)

    @property
    def failed(self) -> bool:
        return self.failure is not None

    @property
    def error(self) -> str:
        return "" if self.failure is None else self.failure.error


@dataclass(frozen=True)
class ScanPoint(ScanRecord):
    """W table out of the initial state at one field point, with how far it
    can be trusted; a failed point has no table."""

    table: TransitionTable
    normalization_error: float  # |sum_b W - 1|
    min_eigen_gap: float = None  # smallest level spacing in the initial class
    outer_shell_leakage: float = None  # sum of W into the n = n0 shell

    @property
    def near_degenerate(self) -> bool:
        """A level gap of the initial class below DEGENERACY_GAP."""
        return self.min_eigen_gap is not None and self.min_eigen_gap < DEGENERACY_GAP

    @classmethod
    def observe(cls, basis, initial, laser, include_a2, axis_value) -> "ScanPoint":
        """W table, |sum_b W - 1|, smallest level gap (None for a single
        level) and outer-shell leakage of one scan point, from the solve of
        the initial state's class.

        W near a pair of levels a gap apart carries rounding of about
        eps*|H|/gap.  The W that leaks into the outermost shell n = n0 is a
        proxy for the truncation error of the basis.
        """
        decomp = diagonalize(assemble(basis, laser, include_a2, parity=initial.parity))
        table = transition_table(decomp, initial, laser)
        _, gaps = decomp.level_gaps()
        # enumerate_basis orders the states by n: the last n0**2 are n = n0
        leakage = float(table.probabilities[-decomp.basis.n0**2:].sum())
        norm_error = abs(float(table.probabilities.sum()) - 1.0)
        min_gap = float(gaps.min()) if len(gaps) else None
        return cls(axis_value, table, norm_error, min_gap, leakage)

    @classmethod
    def from_failure(cls, axis_value, failure) -> "ScanPoint":
        return cls(axis_value, None, np.nan, failure=failure)


@dataclass(frozen=True)
class ScanResult:
    axis: list
    rows: list
    metadata: dict = field(default_factory=dict)


def averaged_probability(
    decomp: EigenDecomposition, from_state: QuantumNumbers, to_state: QuantumNumbers
) -> float:
    c_from, c_to = decomp.row(from_state), decomp.row(to_state)
    return float(np.dot(c_from**2, c_to**2))


def transition_table(
    decomp: EigenDecomposition, initial: QuantumNumbers, laser: LaserField
) -> TransitionTable:
    # W(initial, b) is exactly 0 for b outside the rows held (another class).
    # Squared into a C-ordered array: the product's summation order, and so
    # the last digits of W, follow the layout of that operand.
    probs = np.zeros(len(decomp.basis))
    probs[decomp.rows] = np.square(decomp.coefficients, order="C") @ (
        decomp.row(initial) ** 2
    )
    return TransitionTable(
        initial=initial, basis=decomp.basis, probabilities=probs, laser=laser
    )


def time_resolved_probability(
    decomp: EigenDecomposition,
    from_state: QuantumNumbers,
    to_state: QuantumNumbers,
    t: float,
    omega: float,
) -> float:
    """Instantaneous transition probability at time t after switch-on."""
    if t < 0:
        raise ConfigurationError("time must be >= 0")
    c_from, c_to = decomp.row(from_state), decomp.row(to_state)
    phases = np.exp(-1j * (decomp.energies - to_state.mu * omega) * t)
    return float(np.abs(np.dot(c_from * c_to, phases)) ** 2)


def scan(basis, initial, axis_values, lasers, point, include_a2=True):
    """Observe each field point of a sweep, one record per point.

    Yields, per axis value and laser (two sequences of equal length), the
    record point.observe(basis, initial, laser, include_a2, axis_value),
    where point is ScanPoint or IonizationScanPoint, or
    point.from_failure(...) if that point raised: a failed point does not
    stop the scan.  Each record type solves what it reads, and only in the
    initial state's parity class: a ScanPoint assembles and diagonalizes
    the class, an IonizationScanPoint solves for its tracked state alone
    where it can.  No solve outlives its observe call, so none stays alive
    while the generator waits at its yield and the next point is solved.
    """
    if len(axis_values) != len(lasers):
        raise ConfigurationError(
            f"{len(axis_values)} axis values for {len(lasers)} field points"
        )
    for axis_value, laser in zip(axis_values, lasers):
        try:
            record = point.observe(basis, initial, laser, include_a2, axis_value)
        except Exception as exc:  # the point fails, the scan goes on
            record = point.from_failure(axis_value, PointFailure.of(exc))
        yield record


def _spectrum_result(n0, initial, lasers, axis_values, metadata):
    axis_values = list(axis_values)
    rows = list(scan(enumerate_basis(n0), initial, axis_values, lasers, ScanPoint))
    return ScanResult(axis=axis_values, rows=rows, metadata=metadata)


def spectrum_scan(
    amplitude_au: float,
    omegas_au,
    initial: QuantumNumbers,
    n0: int,
    axis_values=None,
) -> ScanResult:
    """Photon-energy sweep at fixed amplitude (Fig. 1-style data)."""
    omegas_au = list(omegas_au)
    lasers = [LaserField(amplitude_au, w) for w in omegas_au]
    return _spectrum_result(
        n0,
        initial,
        lasers,
        omegas_au if axis_values is None else axis_values,
        {"n0": n0, "amplitude_au": amplitude_au, "initial": initial},
    )


def intensity_scan(
    omega_au: float,
    amplitudes_au,
    initial: QuantumNumbers,
    n0: int,
    axis_values=None,
) -> ScanResult:
    """Amplitude sweep at fixed photon energy (Fig. 2-style data)."""
    amplitudes_au = list(amplitudes_au)
    lasers = [LaserField(a, omega_au) for a in amplitudes_au]
    return _spectrum_result(
        n0,
        initial,
        lasers,
        amplitudes_au if axis_values is None else axis_values,
        {"n0": n0, "omega_au": omega_au, "initial": initial},
    )
