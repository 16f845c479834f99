"""Bound-bound transition probabilities and parameter scans.

The observed (time-averaged) probability of finding the atom in |b> after
starting in |a> is W(a,b) = sum_i C_a(i)^2 C_b(i)^2; orthogonality of the
coefficient matrix makes the full W doubly stochastic.  The instantaneous
probability before averaging is the multi-periodic
|sum_i C_a(i) C_b(i) e^{-i(E_i - mu_b omega) t}|^2.

Every sweep, the library scans and the command line alike, runs through
`scan`, which assembles, diagonalizes and observes one field point after
another and hands back each point's observation or its exception.  W out
of the initial state is exactly 0 outside its parity class, so a scan
assembles, solves and keeps that class alone.
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
class ScanPoint:
    axis_value: float  # swept parameter in I/O units
    table: TransitionTable
    near_degenerate: bool
    normalization_error: float
    min_eigen_gap: float = None  # smallest level spacing in the initial class
    outer_shell_leakage: float = None  # sum of W into the n = n0 shell
    failed: bool = False
    error: str = ""


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
    # Squared in C order, the product sums as it did over a C-ordered C, so
    # W keeps the digits of the whole-basis layout.
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


def scan(basis, initial, lasers, observe, include_a2=True):
    """Run assemble -> diagonalize -> observe at each field of a sweep.

    Yields, per laser, observe(decomp, initial, laser), or the exception
    that point raised: a failed point does not stop the scan.  Only the
    initial state's parity class is assembled and solved.  Neither the
    matrix nor the decomposition is bound to a name, so neither stays alive
    while the generator waits at its yield and the next point is solved.
    """
    parity = (initial.l + initial.mu) % 2
    for laser in lasers:
        try:
            result = observe(
                diagonalize(assemble(basis, laser, include_a2, parity=parity)),
                initial,
                laser,
            )
        except Exception as exc:  # the point fails, the scan goes on
            result = exc
        yield result


def spectrum_observation(
    decomp: EigenDecomposition, initial: QuantumNumbers, laser: LaserField
):
    """W table, near-degeneracy flag (a level gap below DEGENERACY_GAP),
    |sum_b W - 1|, smallest level gap (None for a single level) and
    outer-shell leakage of one scan point.

    W near a pair of levels a gap apart carries rounding of about
    eps*|H|/gap.  The W that leaks into the outermost shell n = n0 is a
    proxy for the truncation error of the basis.
    """
    table = transition_table(decomp, initial, laser)
    _, gaps = decomp.level_gaps()
    # enumerate_basis orders the states by n: the last n0**2 are n = n0
    leakage = float(table.probabilities[-decomp.basis.n0**2:].sum())
    return (
        table,
        bool((gaps < DEGENERACY_GAP).any()),
        abs(float(table.probabilities.sum()) - 1.0),
        float(gaps.min()) if len(gaps) else None,
        leakage,
    )


def _spectrum_result(n0, initial, lasers, axis_values, metadata):
    results = scan(enumerate_basis(n0), initial, lasers, spectrum_observation)
    rows = [
        ScanPoint(axis_value, None, False, np.nan, failed=True, error=str(result))
        if isinstance(result, Exception)
        else ScanPoint(axis_value, *result)
        for axis_value, result in zip(axis_values, results)
    ]
    return ScanResult(axis=list(axis_values), rows=rows, metadata=metadata)


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
