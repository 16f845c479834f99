"""The tracked dressed state solved on half of its parity class.

`eigensolver.solve_tracked` folds H - rho onto the mu half of the class
that holds the initial state and finds the tracked state by Rayleigh-
quotient iteration, and counts levels by Sylvester's law of inertia.  These
tests hold it to the full path (`diagonalize`, `track_state`,
`global_index`) where it certifies its result, check that an ionization
point takes the full path where it does not, hold its column and sigma to
an extended-precision refinement of the same eigenpair
(`oracles.refined_eigenpair`), and check which points the `.meta.json`
lists as solved in full.  They hold the Gershgorin-disc level counts to
`eigvalsh` of the same folded matrix, and the mu-half blocks built from
the cached class layout to the assembled class, bit for bit.
"""

import csv
import json
import math
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import laserhydrogen.eigensolver as eigensolver
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
from laserhydrogen.hamiltonian import LaserField, assemble, class_layout
from laserhydrogen.ionization import IonizationScanPoint, ionization_records
from laserhydrogen.units import CONSTANTS, UnitSystem
from oracles import refined_eigenpair
from test_ionization import _FIG3_SIGMA, _bound_free_loop

GROUND = QuantumNumbers(1, 0, 0)
UNITS = UnitSystem()
# ionization --n0 10 --omega-ev 2.37, A from 1e-5 to 4e-5 V*s/m in 8 points:
# the tracked state is strongly mixed; the first 3 points certify, the last 5
# keep at most half of 1s
STRONG = ["ionization", "--n0", "10", "--omega-ev", "2.37",
          "--a-vspm-start", "1e-5", "--a-vspm-stop", "4e-5", "--count", "8"]
# the sweep through the 1s-2p one-photon resonance
RESONANCE = ["ionization", "--n0", "4", "--omega-ev", "10.2043",
             "--a-vspm-start", "1e-8", "--a-vspm-stop", "2e-6", "--count", "12"]
# the sweep of fig3, and the same sweep at 13.585 eV, where mu = -1 is 0.038
# eV above its threshold and sigma falls to 1e-77 on mu = -10
FIG3 = ["ionization", "--n0", "10", "--omega-ev", "2.37",
        "--a-vspm-start", "5e-7", "--a-vspm-stop", "5e-6", "--count", "10"]
NEAR_THRESHOLD = ["ionization", "--n0", "10", "--omega-ev", "13.585",
                  "--a-vspm-start", "5e-7", "--a-vspm-stop", "5e-6", "--count", "10"]
# the warm sweep of the benchmark's ionization-n10 workload, seed 0
BENCH_SEED0 = ["ionization", "--n0", "10", "--omega-ev", "2.37",
               "--a-vspm-start", "9.75356e-07", "--a-vspm-stop", "4.75531e-06",
               "--count", "40"]


def _full_path(basis, laser, initial):
    decomp = diagonalize(assemble(basis, laser, parity=initial.parity))
    tracked = track_state(decomp, initial)
    return decomp, tracked, global_index(decomp, tracked.index, laser)


def _check_against_full_path(basis, laser, initial):
    """solve_tracked agrees with the full path where it certifies, and the
    scan point is the full path's where it does not; True if certified."""
    decomp, tracked, index = _full_path(basis, laser, initial)
    folded = solve_tracked(basis, laser, initial)
    if folded is None:
        point = IonizationScanPoint.observe(basis, initial, laser, 0.5)
        records = tuple(ionization_records(decomp, tracked.index, laser))
        assert point == IonizationScanPoint(
            0.5, index, tracked.overlap, records, True
        )
        return False
    one, state, position = folded
    assert state.index == 0  # the one dressed state it holds
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


@contextmanager
def _counts_checked_against_eigvalsh():
    """Within it, `solve_tracked` makes each level count twice, with its
    Gershgorin discs and by `eigvalsh` alone, and the two must agree.
    Yields how many counts the discs certified, in the own class and in
    the other."""
    certified = {"own": 0, "other": 0}
    real_levels, real_discs = eigensolver._levels_below, eigensolver._disc_negatives

    def levels(d_k, d_x, c, rho, x_k):
        results = []

        def discs(*args):
            results.append(real_discs(*args))
            return results[-1]

        with mock.patch.object(eigensolver, "_disc_negatives", discs):
            count = real_levels(d_k, d_x, c, rho, x_k)
        with mock.patch.object(eigensolver, "_disc_negatives", lambda *args: None):
            assert real_levels(d_k, d_x, c, rho, x_k) == count
        if results and results[0] is not None:
            certified["own" if x_k is not None else "other"] += 1
        return count

    with mock.patch.object(eigensolver, "_levels_below", levels):
        yield certified


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
    with _counts_checked_against_eigvalsh():
        _check_against_full_path(
            enumerate_basis(n0), LaserField(amplitude, omega), initial
        )


def test_zero_field_and_the_empty_other_class():
    basis = enumerate_basis(1)
    assert solve_tracked(basis, LaserField(0.0, 0.7), GROUND) is None
    one, state, index = solve_tracked(basis, LaserField(0.02, 0.7), GROUND)
    assert (state.index, index, state.overlap) == (0, 0, 1.0)
    assert one.energy(0) == -0.5 + 0.5 * 0.02**2


@pytest.mark.parametrize("initial, argv, certified", [
    (QuantumNumbers(2, 1, 0),  # class 1 with its even half kept
     ["ionization", "--n0", "4", "--omega-ev", "5", "--a-vspm-start", "5e-7",
      "--a-vspm-stop", "1e-6", "--count", "2"], 2),
    # RQI from bare 1s flips between the two resonant states at 2 points;
    # from the Ritz start it certifies all 12
    (GROUND, RESONANCE, 12),
    (GROUND, STRONG, 3),
    # the point of the benchmark's ionization-n10 warm sweeps, seeds 0-19,
    # where RQI from bare 1s reaches a state of overlap 0.002, while the
    # full path's tracked state has 0.904 (dressed_index 10); the Ritz start
    # reaches that state
    (GROUND, ["ionization", "--n0", "10", "--omega-ev", "2.37",
              "--a-vspm-start", "4.5375063589743595e-06",
              "--a-vspm-stop", "4.5375063589743595e-06", "--count", "1"], 1),
], ids=["initial-2-1-0", "resonance", "strong-field", "ionization-n10-seed5"])
def test_named_sweeps_agree_with_the_full_path(initial, argv, certified):
    basis, lasers = _sweep(argv)
    done = [_check_against_full_path(basis, laser, initial) for laser in lasers]
    assert sum(done) == certified


def test_exact_tie_with_a_bare_level_of_the_other_half():
    # At n0 = 2 and omega = 0.375 the bare pseudo-energies of 1s and of 2p
    # mu = -1 are both -0.5 + A^2/2: RQI from bare 1s would fold at a
    # diagonal entry of the x half and divide by zero, and the Ritz start's
    # first correction meets that zero of theta - diag H, which it replaces
    # by eps.  From the Ritz start the fold certifies the state.
    basis, laser = enumerate_basis(2), LaserField(1e-3, 0.375)
    _, tracked, index = _full_path(basis, laser, GROUND)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, state, position = solve_tracked(basis, laser, GROUND)
        point = IonizationScanPoint.observe(basis, GROUND, laser, 1e-3)
    assert (position, index) == (0, 0)
    assert abs(state.overlap - tracked.overlap) <= 1e-12
    assert not point.full_solve and point.dressed_index == 0
    assert abs(point.overlap - 0.5000658089446299) <= 1e-12


@pytest.mark.parametrize("n0", [6, 10])
@pytest.mark.parametrize("initial", [GROUND, QuantumNumbers(2, 1, 1)],
                         ids=["1s", "2p+1"])
def test_tracked_column_matches_the_refined_eigenpair(n0, initial):
    # fig3's weakest field, where the smallest components are smallest
    basis = enumerate_basis(n0)
    laser = LaserField(UNITS.vector_potential_to_internal(5e-7),
                       UNITS.ev_to_internal(2.37))
    one, state, _ = solve_tracked(basis, laser, initial)
    matrix = assemble(basis, laser, parity=initial.parity)
    column = one.column(state.index)
    vector, energy = refined_eigenpair(matrix.entries, column, one.energy(state.index))
    assert abs(one.energy(state.index) - energy) <= 1e-15
    np.testing.assert_allclose(column, vector, rtol=1e-11, atol=0)


def test_stored_fig3_sigma_is_the_refined_eigenpair_sigma():
    # test_ionization's stored fig3 values: sigma of the refined column
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
        refined = EigenDecomposition(np.array([energy]), vector[:, None], basis, 0)
        sigma = [
            UNITS.cross_section_to_pi_a0sq(r.sigma)
            for r in ionization_records(refined, 0, laser)
        ]
        np.testing.assert_allclose(sigma, stored, rtol=1e-13, atol=0)


def _refined_sigma(basis, laser):
    """sigma of each open branch, in atomic units and mu order, from the
    tracked eigenpair refined in extended precision, every component of
    its column summed by test_ionization's loop over the basis."""
    decomp, tracked, _ = _full_path(basis, laser, GROUND)
    vector, energy = refined_eigenpair(
        assemble(basis, laser).entries, decomp.column(tracked.index),
        decomp.energies[tracked.index],
    )
    refined = EigenDecomposition(np.array([energy]), vector[:, None], basis, 0)
    sigma = []
    for mu in range(-basis.n0, basis.n0 + 1):
        e_f0 = energy - mu * laser.omega
        if e_f0 > 0:
            p = [_bound_free_loop(refined, 0, mu, l_f, e_f0)
                 for l_f in range(abs(mu), basis.n0 + 1)]
            sigma.append(8 * math.pi * CONSTANTS.fine_structure_alpha
                         / laser.omega * math.fsum(x * x for x in p))
    return sigma


# The folded solve's components are good to about 1e-13 relative and the
# bound-free integrals to 5e-14, so sigma is good to about 1e-13 on every
# branch, however small (worst 1.1e-14 at 13.585 eV).  Beside the avoided
# crossing at fig3's A = 4e-6 V*s/m, the tracked level 6.6e-4 hartree from
# its neighbour, the smallest components come from sums that cancel in
# working precision and hold only to about 1e-12 (worst 1.8e-12).
@pytest.mark.parametrize("argv, rtol", [(NEAR_THRESHOLD, 1e-13), (FIG3, 5e-12)],
                         ids=["13.585eV", "fig3"])
def test_sigma_of_every_branch_is_the_refined_eigenpair_sigma(argv, rtol):
    basis, lasers = _sweep(argv)
    for laser in lasers:
        point = IonizationScanPoint.observe(basis, GROUND, laser, 0.0)
        np.testing.assert_allclose(
            [r.sigma for r in point.records], _refined_sigma(basis, laser),
            rtol=rtol, atol=0,
        )


def test_resonance_sigma_is_the_refined_eigenpair_sigma():
    # the two points of the resonance sweep that RQI from bare 1s left to
    # the full path
    basis, lasers = _sweep(RESONANCE)
    for laser in lasers[1:3]:
        one, state, _ = solve_tracked(basis, laser, GROUND)
        vector, energy = refined_eigenpair(
            assemble(basis, laser).entries, one.column(0), one.energy(0)
        )
        refined = EigenDecomposition(np.array([energy]), vector[:, None], basis, 0)
        sigma = [r.sigma for r in ionization_records(one, state.index, laser)]
        exact = [r.sigma for r in ionization_records(refined, 0, laser)]
        np.testing.assert_allclose(sigma, exact, rtol=1e-12, atol=0)


@pytest.mark.parametrize("argv, full", [
    (["ionization", "--preset", "fig3"], slice(0)),
    (BENCH_SEED0, slice(0)),
    (STRONG, slice(3, None)),
], ids=["fig3", "ionization-n10-seed0", "strong-field"])
def test_meta_lists_the_points_solved_in_full(tmp_path, argv, full):
    out = tmp_path / "ion.csv"
    assert main(argv + ["--out", str(out)]) == 0
    meta = json.loads((tmp_path / "ion.csv.meta.json").read_text())
    with open(out, newline="") as fh:
        axis = list(dict.fromkeys(float(r["A_vspm"]) for r in csv.DictReader(fh)))
    # the strong-field sweep lists its last 5 points
    assert meta["full_solve_axis_values"] == axis[full]


def test_scan_solves_no_class_where_the_fold_certifies(monkeypatch):
    solved = []
    real = ionization.diagonalize
    monkeypatch.setattr(ionization, "diagonalize",
                        lambda m: solved.append(m) or real(m))
    basis, lasers = _sweep(BENCH_SEED0[:-1] + ["3"])
    points = [
        IonizationScanPoint.observe(basis, GROUND, laser, i)
        for i, laser in enumerate(lasers)
    ]
    assert solved == [] and not any(p.full_solve for p in points)


def test_disc_counts_are_the_eigvalsh_counts_on_the_benchmark_sweep():
    basis, lasers = _sweep(BENCH_SEED0)
    with _counts_checked_against_eigvalsh() as certified:
        for laser in lasers:
            assert solve_tracked(basis, laser, GROUND) is not None
    # the discs certify most of the 40 counts of each class
    assert certified["own"] >= 20 and certified["other"] >= 20


def _disc_radius(s):
    """Largest Gershgorin radius of S scaled by |s_ii|^-1/2."""
    q = 1.0 / np.sqrt(np.abs(np.diag(s)))
    off = np.abs(s) * np.outer(q, q)
    np.fill_diagonal(off, 0.0)
    return off.sum(axis=1).max()


@pytest.mark.parametrize("d_k, d_x, c, x_k, radius, count", [
    # S(0) = [[-1, -2], [-2, -3]]: a scaled disc of radius 1.15 covers 0
    ([1.0, -1.0], [2.0], [[2.0], [2.0]], None, 1.15, 1),
    # S(0) = [[1e-9, 2.5e-5], [2.5e-5, 1]]: the discs, of radius 0.79, clear
    # 0, but bound the eigenvalues of S only by 2.1e-10 from it, within the
    # guard of 2.2e-10; eigvalsh reads the smaller one as 3.75e-10
    ([3.75e-10, 0.0], [-1.0], [[2.5e-5], [1.0]], None, 0.79, 1),
    # S(0) = [[0.498, -0.002], [-0.002, 1.998]] and x_k = (1, 0), no null
    # vector: the disc of the row kept certifies, but |S x_k| = 0.5 is far
    # outside the guard, and eigvalsh finds no eigenvalue of S at 0
    ([0.5, 2.0], [5.0], [[0.1], [0.1]], [1.0, 0.0], 0.002, None),
], ids=["disc-covers-zero", "guard-refuses", "no-level-at-rho"])
def test_level_count_falls_back_to_eigvalsh(d_k, d_x, c, x_k, radius, count):
    d_k, d_x, c = np.array(d_k), np.array(d_x), np.array(c)
    x_k = None if x_k is None else np.array(x_k)
    s, _ = eigensolver._fold(d_k, d_x, c, 0.0)
    assert _disc_radius(s) == pytest.approx(radius, rel=0.01)
    solves = []
    real = np.linalg.eigvalsh
    with mock.patch.object(np.linalg, "eigvalsh",
                           lambda m: solves.append(m) or real(m)):
        assert eigensolver._levels_below(d_k, d_x, c, 0.0, x_k) == count
    assert len(solves) == 1
    if count is not None:
        h = np.block([[np.diag(d_k), c], [c.T, np.diag(d_x)]])
        assert count == np.count_nonzero(np.linalg.eigvalsh(h) < 0)


@pytest.mark.parametrize("n0", range(1, 11))
def test_halves_are_the_assembled_class_bit_for_bit(n0):
    basis = enumerate_basis(n0)
    for parity in (0, 1):
        if len(basis.class_positions(parity)) == 0:
            continue  # n0 = 1 has no odd state
        for amplitude, omega in ((1e-4, 0.087), (0.02, 0.5), (0.3, 0.01)):
            laser = LaserField(amplitude, omega)
            (even, d_even), (odd, d_odd), c = eigensolver._halves(
                basis, laser, parity
            )
            h = assemble(basis, laser, parity=parity).entries
            assert np.array_equal(c, h[np.ix_(even, odd)])
            assert np.array_equal(d_even, np.diag(h)[even])
            assert np.array_equal(d_odd, np.diag(h)[odd])


def test_benchmark_sweep_reads_few_spectra_and_builds_the_pattern_once(monkeypatch):
    calls = {"eigvalsh": 0}
    real_eigvalsh = np.linalg.eigvalsh

    def eigvalsh(*args):
        calls["eigvalsh"] += 1
        return real_eigvalsh(*args)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    class_layout.cache_clear()
    basis, lasers = _sweep(BENCH_SEED0)
    for laser in lasers:
        solve_tracked(basis, laser, GROUND)
    # the couplings are laid out once for each class of the basis
    assert class_layout.cache_info().misses == 2
    assert calls["eigvalsh"] <= 0.6 * len(lasers)
