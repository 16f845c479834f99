"""Bound-bound transition probabilities and parameter scans.

The observed (time-averaged) probability of finding the atom in |b> after
starting in |a> is W(a,b) = sum_i C_a(i)^2 C_b(i)^2; orthogonality of the
coefficient matrix makes the full W doubly stochastic.  The instantaneous
probability before averaging is the multi-periodic
|sum_i C_a(i) C_b(i) e^{-i(E_i - mu_b omega) t}|^2.

Every sweep, the library scans and the command line alike, runs through
`scan`, which assembles, diagonalizes and observes one field point after
another and hands back each point's observation or its exception.
"""

from dataclasses import dataclass, field
from functools import partial

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
    # W(initial, b) is exactly 0 outside the initial state's block.
    rows, cols = decomp.block_of(initial)
    c = decomp.coefficients
    probs = np.zeros(decomp.dimension)
    probs[rows] = (c[np.ix_(rows, cols)] ** 2) @ (
        c[decomp.basis.position(initial), cols] ** 2
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
    initial state's parity class is solved with eigenvectors.  Neither the
    matrix nor the decomposition is bound to a name, so neither stays alive
    while the generator waits at its yield and the next point is solved.
    """
    for laser in lasers:
        try:
            result = observe(
                diagonalize(assemble(basis, laser, include_a2), vectors_for=initial),
                initial,
                laser,
            )
        except Exception as exc:  # the point fails, the scan goes on
            result = exc
        yield result


def spectrum_observation(
    decomp: EigenDecomposition,
    initial: QuantumNumbers,
    laser: LaserField,
    degeneracy_gap: float = DEGENERACY_GAP,
):
    """(W table, near-degeneracy flag, |sum_b W - 1|) of one scan point."""
    table = transition_table(decomp, initial, laser)
    near = len(decomp.near_degenerate_pairs(degeneracy_gap)) > 0
    return table, near, abs(float(table.probabilities.sum()) - 1.0)


def _spectrum_result(n0, initial, lasers, axis_values, degeneracy_gap, metadata):
    observe = partial(spectrum_observation, degeneracy_gap=degeneracy_gap)
    results = scan(enumerate_basis(n0), initial, lasers, observe)
    rows = [
        ScanPoint(axis_value, None, False, np.nan, True, str(result))
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
    degeneracy_gap: float = DEGENERACY_GAP,
) -> ScanResult:
    """Photon-energy sweep at fixed amplitude (Fig. 1-style data)."""
    omegas_au = list(omegas_au)
    lasers = [LaserField(amplitude_au, w) for w in omegas_au]
    return _spectrum_result(
        n0,
        initial,
        lasers,
        omegas_au if axis_values is None else axis_values,
        degeneracy_gap,
        {"n0": n0, "amplitude_au": amplitude_au, "initial": initial},
    )


def intensity_scan(
    omega_au: float,
    amplitudes_au,
    initial: QuantumNumbers,
    n0: int,
    axis_values=None,
    degeneracy_gap: float = DEGENERACY_GAP,
) -> ScanResult:
    """Amplitude sweep at fixed photon energy (Fig. 2-style data)."""
    amplitudes_au = list(amplitudes_au)
    lasers = [LaserField(a, omega_au) for a in amplitudes_au]
    return _spectrum_result(
        n0,
        initial,
        lasers,
        amplitudes_au if axis_values is None else axis_values,
        degeneracy_gap,
        {"n0": n0, "omega_au": omega_au, "initial": initial},
    )
