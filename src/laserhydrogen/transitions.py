"""Bound-bound transition probabilities and parameter scans.

The observed (time-averaged) probability of finding the atom in |b> after
starting in |a> is W(a,b) = sum_i C_a(i)^2 C_b(i)^2; orthogonality of the
coefficient matrix makes the full W doubly stochastic.  The instantaneous
probability before averaging is the multi-periodic
|sum_i C_a(i) C_b(i) e^{-i E_i t}|^2: the change to the laboratory frame
multiplies |b> by e^{-i mu_b omega t}, a phase that |.|^2 removes.

Every sweep runs through `scan`, which calls one observe function on one
field point after another and returns a list with one record per point:
what observe returned, a `ScanPoint` (W table) or an
`ionization.IonizationScanPoint`, or a `PointFailure` where it raised.
`cli.sweep` builds the fields and binds observe for a configuration, the
command line's and the library's alike; a caller with other fields calls
`scan` itself.  W out of the initial state is exactly 0 outside its
parity class, so a `ScanPoint` assembles and solves that class alone; an
ionization point reads one dressed state of it.  A `ScanPoint` stores its W
table and smallest level gap alone: its W normalization error and
outer-shell leakage are properties read from the table.  The A^2/2 constant
shifts every pseudo-energy alike, so it changes no W and no level gap;
only the ionization point's observe reads whether E_i includes it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, QuantumNumbers
from .eigensolver import DEGENERACY_GAP, EigenDecomposition, diagonalize
from .errors import ConfigurationError
from .hamiltonian import assemble


@dataclass(frozen=True)
class TransitionTable:
    """Time-averaged probabilities out of one initial state."""

    basis: BasisSet
    probabilities: np.ndarray  # aligned with basis.states

    def probability(self, final: QuantumNumbers) -> float:
        return float(self.probabilities[self.basis.position(final)])


@dataclass(frozen=True)
class ScanRecord:
    """The base of every record `scan` stores: the point's axis value, and
    `failed`, True only for a `PointFailure`."""

    axis_value: float  # swept parameter in I/O units
    failed = False


@dataclass(frozen=True)
class PointFailure(ScanRecord):
    """A scan point that raised: the exception's message, its type name and
    the module.function of the frame that raised it, as strings only (its
    traceback would keep the point's decomposition alive)."""

    error: str
    type: str
    where: str
    failed = True

    @classmethod
    def of(cls, axis_value, exc: BaseException) -> "PointFailure":
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        frame = tb.tb_frame
        where = f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}"
        return cls(axis_value, str(exc), type(exc).__name__, where)


@dataclass(frozen=True)
class ScanPoint(ScanRecord):
    """W table out of the initial state at one field point, with how far it
    can be trusted."""

    table: TransitionTable
    min_eigen_gap: float  # smallest level spacing in the initial class

    @property
    def near_degenerate(self) -> bool:
        """A level gap of the initial class below DEGENERACY_GAP."""
        return self.min_eigen_gap is not None and self.min_eigen_gap < DEGENERACY_GAP

    @property
    def normalization_error(self) -> float:
        """|sum_b W - 1|."""
        return abs(float(self.table.probabilities.sum()) - 1.0)

    @property
    def outer_shell_leakage(self) -> float:
        """The W that leaks into the outermost shell n = n0, a proxy for the
        truncation error of the basis."""
        basis = self.table.basis
        return float(self.table.probabilities[basis.shell(basis.n0)].sum())

    @classmethod
    def observe(cls, basis, initial, laser, axis_value) -> "ScanPoint":
        """W table and smallest level gap (None for a single level) of one
        scan point, from the solve of the initial state's class.

        W near a pair of levels a gap apart carries rounding of about
        eps*|H|/gap.
        """
        decomp = diagonalize(assemble(basis, laser, parity=initial.parity))
        # the levels of one class can mix, so each spacing is a gap
        gaps = np.diff(decomp.energies)
        min_gap = float(gaps.min()) if len(gaps) else None
        return cls(axis_value, transition_table(decomp, initial), min_gap)


def transition_table(
    decomp: EigenDecomposition, initial: QuantumNumbers
) -> TransitionTable:
    # W(initial, b) is exactly 0 for b outside the rows held (another class).
    # Squared into a C-ordered array: the product's summation order, and so
    # the last digits of W, follow the layout of that operand.
    probs = np.zeros(len(decomp.basis))
    probs[decomp.rows] = np.square(decomp.coefficients, order="C") @ (
        decomp.row(initial) ** 2
    )
    return TransitionTable(decomp.basis, probs)


def time_resolved_probability(
    decomp: EigenDecomposition,
    from_state: QuantumNumbers,
    to_state: QuantumNumbers,
    t: float,
) -> float:
    """Instantaneous transition probability at time t after switch-on, the
    same in the rotating and the laboratory frame."""
    if not 0 <= t < math.inf:  # NaN fails it too
        raise ConfigurationError(f"time must be finite and >= 0, got {t!r}")
    c_from, c_to = decomp.row(from_state), decomp.row(to_state)
    phases = np.exp(-1j * decomp.energies * t)
    return float(np.abs(np.dot(c_from * c_to, phases)) ** 2)


def scan(axis_values, lasers, observe) -> list:
    """Observe each field point of a sweep, one record per point.

    Returns, per axis value and laser (two sequences of equal length), the
    record observe(laser, axis_value), or PointFailure.of(axis_value, exc)
    if that call raised: a failed point does not stop the scan.  observe is
    `ScanPoint.observe` or `IonizationScanPoint.observe` with the basis and
    the initial state bound (functools.partial).  Each solves what it reads,
    and only in the initial state's parity class: a ScanPoint assembles and
    diagonalizes the class, an IonizationScanPoint solves for its tracked
    state alone where it can.  No solve outlives its observe call.
    """
    if len(axis_values) != len(lasers):
        raise ConfigurationError(
            f"{len(axis_values)} axis values for {len(lasers)} field points"
        )
    records = []
    for axis_value, laser in zip(axis_values, lasers):
        try:
            records.append(observe(laser, axis_value))
        except Exception as exc:  # the point fails, the scan goes on
            records.append(PointFailure.of(axis_value, exc))
    return records
