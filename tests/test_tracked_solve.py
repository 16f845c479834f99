"""The tracked dressed state solved on half of its parity class.

`eigensolver.solve_tracked` folds H - rho onto the mu half of the class
that holds the initial state and finds the tracked state by Rayleigh-
quotient iteration, and counts levels by Sylvester's law of inertia.  These
tests hold it to the full path (`diagonalize`, `track_state`,
`global_index`) where it certifies its result, check that an ionization
point takes the full path where it does not, hold its column and sigma to
an extended-precision refinement of the same eigenpair
(`oracles.refined_eigenpair`), and check which points the `.meta.json`
lists as solved in full.
"""

import csv
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import laserhydrogen.ionization as ionization
from laserhydrogen.basis import QuantumNumbers, enumerate_basis
from laserhydrogen.cli import main
from laserhydrogen.eigensolver import (
    EigenDecomposition,
    diagonalize,
    global_index,
    solve_tracked,
    track_state,
)
from laserhydrogen.hamiltonian import LaserField, assemble
from laserhydrogen.ionization import IonizationScanPoint, ionization_records
from laserhydrogen.units import UnitSystem
from oracles import refined_eigenpair

GROUND = QuantumNumbers(1, 0, 0)
UNITS = UnitSystem()
# ionization --n0 10 --omega-ev 2.37, A from 1e-5 to 4e-5 V*s/m in 8 points:
# the tracked state is strongly mixed, and no point certifies
STRONG = ["ionization", "--n0", "10", "--omega-ev", "2.37",
          "--a-vspm-start", "1e-5", "--a-vspm-stop", "4e-5", "--count", "8"]
# the warm sweep of the benchmark's ionization-n10 workload, seed 0
BENCH_SEED0 = ["ionization", "--n0", "10", "--omega-ev", "2.37",
               "--a-vspm-start", "9.75356e-07", "--a-vspm-stop", "4.75531e-06",
               "--count", "40"]


def _full_path(basis, laser, initial, include_a2=True):
    decomp = diagonalize(assemble(basis, laser, include_a2, parity=initial.parity))
    tracked = track_state(decomp, initial)
    return decomp, tracked, global_index(decomp, tracked.index, laser)


def _check_against_full_path(basis, laser, initial):
    """solve_tracked agrees with the full path where it certifies, and the
    scan point is the full path's where it does not; True if certified."""
    decomp, tracked, index = _full_path(basis, laser, initial)
    folded = solve_tracked(basis, laser, initial, True)
    if folded is None:
        point = IonizationScanPoint.observe(basis, initial, laser, True, 0.5)
        records = tuple(ionization_records(decomp, tracked.index, laser))
        assert point == IonizationScanPoint(
            0.5, index, tracked.overlap, tracked.ambiguous, records, True
        )
        return False
    one, state, position = folded
    assert state.index == tracked.index
    assert position == index
    e_full = decomp.energies[tracked.index]
    assert abs(one.energy(state.index) - e_full) <= 1e-13 * max(1.0, abs(e_full))
    assert state.overlap > 0.5 and not state.ambiguous
    if abs(state.overlap - tracked.overlap) > 1e-11:
        # Near a level a gap apart, eigh's vector carries rounding of about
        # eps*|H|/gap; the refined eigenpair decides, and the fold holds it
        # to 1e-11.
        vector, _ = refined_eigenpair(
            assemble(basis, laser, parity=initial.parity).entries,
            one.column(state.index), one.energy(state.index),
        )
        exact = vector[np.searchsorted(decomp.rows, basis.position(initial))] ** 2
        gap = np.delete(np.abs(decomp.energies - e_full), tracked.index).min()
        rounding = 2 * np.finfo(float).eps * np.abs(decomp.energies).max() / gap
        assert abs(state.overlap - exact) <= 1e-11
        assert abs(tracked.overlap - exact) <= rounding
    return True


def _sweep(argv):
    """(basis, lasers) of an ionization command line."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    start, stop = float(flags["--a-vspm-start"]), float(flags["--a-vspm-stop"])
    count = int(flags["--count"])
    omega = UNITS.ev_to_internal(float(flags["--omega-ev"]))
    amplitudes = np.linspace(start, stop, count) if count > 1 else [start]
    lasers = [
        LaserField(UNITS.vector_potential_to_internal(a), omega) for a in amplitudes
    ]
    return enumerate_basis(int(flags["--n0"])), lasers


@st.composite
def _cases(draw):
    n0 = draw(st.integers(min_value=1, max_value=7))
    n = draw(st.integers(min_value=1, max_value=n0))
    l = draw(st.integers(min_value=0, max_value=n - 1))
    mu = draw(st.integers(min_value=-l, max_value=l))
    amplitude = draw(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.5)))
    omega = draw(st.floats(min_value=1e-3, max_value=0.8))
    return n0, QuantumNumbers(n, l, mu), amplitude, omega


@settings(max_examples=60, deadline=None)
@given(case=_cases())
@example(case=(3, GROUND, 0.0, 0.1)).via("A = 0 takes the full path")
@example(case=(1, GROUND, 0.02, 0.7)).via("n0 = 1: the other class is empty")
@example(case=(4, QuantumNumbers(2, 1, 0), 0.03, 0.18)).via("class 1, even half")
def test_folded_solve_agrees_with_the_full_path(case):
    n0, initial, amplitude, omega = case
    _check_against_full_path(
        enumerate_basis(n0), LaserField(amplitude, omega), initial
    )


def test_zero_field_and_the_empty_other_class():
    basis = enumerate_basis(1)
    assert solve_tracked(basis, LaserField(0.0, 0.7), GROUND, True) is None
    one, state, index = solve_tracked(basis, LaserField(0.02, 0.7), GROUND, True)
    assert (state.index, index, state.overlap) == (0, 0, 1.0)
    assert one.energy(0) == -0.5 + 0.5 * 0.02**2


@pytest.mark.parametrize("initial, argv, certified", [
    (QuantumNumbers(2, 1, 0),  # class 1 with its even half kept
     ["ionization", "--n0", "4", "--omega-ev", "5", "--a-vspm-start", "5e-7",
      "--a-vspm-stop", "1e-6", "--count", "2"], 2),
    (GROUND, ["ionization", "--n0", "4", "--omega-ev", "10.2043",
              "--a-vspm-start", "1e-8", "--a-vspm-stop", "2e-6", "--count", "12"], 10),
    (GROUND, STRONG, 0),
], ids=["initial-2-1-0", "resonance", "strong-field"])
def test_named_sweeps_agree_with_the_full_path(initial, argv, certified):
    basis, lasers = _sweep(argv)
    done = [_check_against_full_path(basis, laser, initial) for laser in lasers]
    assert sum(done) == certified


@pytest.mark.parametrize("n0", [6, 10])
@pytest.mark.parametrize("initial", [GROUND, QuantumNumbers(2, 1, 1)],
                         ids=["1s", "2p+1"])
def test_tracked_column_matches_the_refined_eigenpair(n0, initial):
    # fig3's weakest field, where the smallest components are smallest
    basis = enumerate_basis(n0)
    laser = LaserField(UNITS.vector_potential_to_internal(5e-7),
                       UNITS.ev_to_internal(2.37))
    one, state, _ = solve_tracked(basis, laser, initial, True)
    matrix = assemble(basis, laser, parity=initial.parity)
    column = one.column(state.index)
    vector, energy = refined_eigenpair(matrix.entries, column, one.energy(state.index))
    assert abs(one.energy(state.index) - energy) <= 1e-15
    np.testing.assert_allclose(column, vector, rtol=1e-11, atol=0)


def test_stored_fig3_sigma_is_the_refined_eigenpair_sigma():
    # test_ionization's stored fig3 values: sigma of the refined column
    from test_ionization import _FIG3_SIGMA

    basis = enumerate_basis(10)
    for axis, (index, stored) in _FIG3_SIGMA.items():
        laser = LaserField(UNITS.vector_potential_to_internal(float(axis)),
                           UNITS.ev_to_internal(2.37))
        decomp, tracked, position = _full_path(basis, laser, GROUND)
        assert position == int(index)
        vector, energy = refined_eigenpair(
            assemble(basis, laser).entries, decomp.column(tracked.index),
            decomp.energies[tracked.index],
        )
        refined = EigenDecomposition(
            np.array([energy]), vector[:, None], basis, 0, True, tracked.index
        )
        sigma = [
            UNITS.cross_section_to_pi_a0sq(r.sigma)
            for r in ionization_records(refined, tracked.index, laser)
        ]
        np.testing.assert_allclose(sigma, stored, rtol=1e-13, atol=0)


@pytest.mark.parametrize("argv, full", [
    (["ionization", "--preset", "fig3"], 0),
    (BENCH_SEED0, 0),
    (STRONG, 8),
], ids=["fig3", "ionization-n10-seed0", "strong-field"])
def test_meta_lists_the_points_solved_in_full(tmp_path, argv, full):
    out = tmp_path / "ion.csv"
    assert main(argv + ["--out", str(out)]) == 0
    meta = json.loads((tmp_path / "ion.csv.meta.json").read_text())
    with open(out, newline="") as fh:
        axis = list(dict.fromkeys(float(r["A_vspm"]) for r in csv.DictReader(fh)))
    # the strong-field sweep lists every one of its 8 points
    assert meta["full_solve_axis_values"] == axis[:full]


def test_scan_solves_no_class_where_the_fold_certifies(monkeypatch):
    solved = []
    real = ionization.diagonalize
    monkeypatch.setattr(ionization, "diagonalize",
                        lambda m: solved.append(m) or real(m))
    basis, lasers = _sweep(BENCH_SEED0[:-1] + ["3"])
    points = [
        IonizationScanPoint.observe(basis, GROUND, laser, True, i)
        for i, laser in enumerate(lasers)
    ]
    assert solved == [] and not any(p.full_solve for p in points)
