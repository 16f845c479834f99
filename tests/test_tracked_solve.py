"""The tracked dressed state solved on half of its parity class.

`eigensolver.solve_tracked` folds H - rho onto the mu half of the class
that holds the initial state and finds the tracked state by Rayleigh-
quotient iteration, and counts levels by Sylvester's law of inertia.  These
tests hold the fold alone (`solve_tracked` with its class solve refused) to
the full path (`diagonalize`, `track_state`, and the class rank plus
`levels_below`) where it certifies its result, hold the other class's count
to the tie rule at the bare levels of the half it folds away, check that
it returns the bare state at A = 0, hold `solve_tracked` to the full
path's state and index where the fold does not certify it, hold its column
and sigma to an extended-precision refinement of the same eigenpair
(`oracles.refined_eigenpair`), at the points the fold certifies and at
those where the class solve picks the state, and check which points the
`.meta.json` lists as ambiguous.  They hold the Gershgorin-disc level
counts to `eigvalsh` of the same folded matrix, and the mu-half blocks
built from the cached class layout to the assembled class, bit for bit.
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
    levels_below,
    solve_tracked,
    track_state,
)
from laserhydrogen.hamiltonian import LaserField, assemble, class_layout
from laserhydrogen.ionization import IonizationScanPoint, ionization_records
from laserhydrogen.units import CONSTANTS, UnitSystem
from oracles import refined_eigenpair
from test_ionization import _FIG3_SIGMA, _bound_free_loop
from test_one_block_solve import _fold_only, _merged_columns

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
# from A = 0, where the folded solve starts at the bare state itself
ZERO_FIELD = ["ionization", "--n0", "6", "--omega-ev", "2.37",
              "--a-vspm-start", "0", "--a-vspm-stop", "5e-6", "--count", "3"]
# the warm sweep of the benchmark's ionization-n10 workload, seed 0
BENCH_SEED0 = ["ionization", "--n0", "10", "--omega-ev", "2.37",
               "--a-vspm-start", "9.75356e-07", "--a-vspm-stop", "4.75531e-06",
               "--count", "40"]


def _full_path(basis, laser, initial):
    decomp = diagonalize(assemble(basis, laser, parity=initial.parity))
    tracked = track_state(decomp, initial)
    e_i = decomp.energy(tracked.index)
    other = levels_below(basis, laser, 1 - initial.parity, e_i)
    return decomp, tracked, tracked.index + other


def _check_against_full_path(basis, laser, initial):
    """The fold alone agrees with the full path where it certifies; where it
    does not, solve_tracked gives the full path's state and index, E_i to
    1e-13 and the overlap to eps*|H|/gap, and the scan point is
    solve_tracked's.  True if the fold certified."""
    decomp, tracked, index = _full_path(basis, laser, initial)
    folded = _fold_only(basis, laser, initial)
    if folded is None:
        one, overlap, position = solve_tracked(basis, laser, initial)
        point = IonizationScanPoint.observe(basis, initial, laser, 0.5)
        records = tuple(ionization_records(one, 0, laser))
        assert point == IonizationScanPoint(0.5, position, overlap, records)
    else:
        one, overlap, position = folded
    assert one.dimension == 1  # the one dressed state it holds
    assert position == index
    e_full = decomp.energies[tracked.index]
    # A level of the other class within the tie window of E_i ties with it,
    # as 2p0 with 2s at n0 = 2, where p_x couples neither; the even class
    # comes first, whichever side of it eigh's E_i and the fold's land.
    other = np.empty(0)  # n0 = 1 has no odd class
    if len(basis.class_positions(1 - initial.parity)):
        other = np.linalg.eigvalsh(
            assemble(basis, laser, parity=1 - initial.parity).entries
        )
    scale = max(1.0, abs(e_full), np.abs(other).max(initial=0.0))
    tied = np.abs(other - e_full) <= eigensolver._TIE * scale
    below = np.count_nonzero((other < e_full) & ~tied)
    assert position == tracked.index + below + initial.parity * np.count_nonzero(tied)
    assert abs(one.energy(0) - e_full) <= 1e-13 * max(1.0, abs(e_full))
    if folded is not None:
        assert overlap > 0.5
    if abs(overlap - tracked.overlap) > 1e-11:
        # Near a level a gap apart, eigh's vector carries rounding of about
        # eps*|H|/gap; the refined eigenpair decides.  The fold holds it to
        # 1e-11 where it certifies the state; restarted from eigh's vector
        # next to a level of its own class, any solver is held to that
        # rounding alone.
        vector, _ = refined_eigenpair(
            assemble(basis, laser, parity=initial.parity).entries,
            one.column(0), one.energy(0),
        )
        exact = vector[np.searchsorted(decomp.rows, basis.position(initial))] ** 2
        gap = np.delete(np.abs(decomp.energies - e_full), tracked.index).min()
        rounding = 2 * np.finfo(float).eps * np.abs(decomp.energies).max() / gap
        assert abs(overlap - exact) <= (1e-11 if folded is not None else rounding)
        assert abs(tracked.overlap - exact) <= rounding
    return folded is not None


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
@example(case=(3, GROUND, 0.0, 0.1)).via("A = 0: the fold returns the bare state")
@example(case=(3, QuantumNumbers(3, 0, 0), 0.0, 0.1)).via(
    "A = 0: 3s ties 3d0 exactly and the class solve picks it")
@example(case=(2, QuantumNumbers(2, 0, 0), 0.171875, 0.5)).via(
    "2s ties 2p0 exactly at any A, and the fold certifies it")
@example(case=(2, QuantumNumbers(2, 0, 0), 0.46875, 0.46875)).via(
    "eigh's E_i of 2s lies 52 ulp above its tie with 2p0")
@example(case=(1, GROUND, 0.02, 0.7)).via("n0 = 1: the other class is empty")
@example(case=(4, QuantumNumbers(2, 1, 0), 0.03, 0.18)).via("class 1, even half")
def test_folded_solve_agrees_with_the_full_path(case):
    n0, initial, amplitude, omega = case
    with _counts_checked_against_eigvalsh():
        _check_against_full_path(
            enumerate_basis(n0), LaserField(amplitude, omega), initial
        )


@settings(max_examples=40, deadline=None)
@given(case=_cases())
@example(case=(3, QuantumNumbers(3, 0, 0), 1e-5, 0.5)).via(
    "3s near a level of its class: overlap 3.9e-8 off, eigh's 2.3e-4")
@example(case=(3, QuantumNumbers(3, 0, 0), 0.0, 0.1)).via(
    "A = 0: 3s ties 3d0 exactly and the restart's residual is 0")
@example(case=(2, QuantumNumbers(2, 0, 0), 0.171875, 0.5)).via(
    "2s ties 2p0 of the other class exactly")
@example(case=(3, QuantumNumbers(3, 2, 0), 9.473142109899513e-09,
               0.6897928688384724)).via(
    "3d0 1.8e-16 from a level of its class: the restart leaves eigh's state")
def test_class_solve_picks_the_state_the_fold_restarts_from(case):
    # Wherever the fold does not certify the state, solve_tracked takes the
    # state and class rank of the class solve and restarts the iteration
    # from its column; with the fold's own class rank refused at every
    # point, that path gives the full path's index, its E_i and its overlap,
    # and the state it returns holds more than half of the class solve's.
    n0, initial, amplitude, omega = case
    basis, laser = enumerate_basis(n0), LaserField(amplitude, omega)
    real = eigensolver._levels_below

    def other_class_only(d_k, d_x, c, rho, x_k):
        return None if x_k is not None else real(d_k, d_x, c, rho, x_k)

    with mock.patch.object(eigensolver, "_levels_below", other_class_only):
        assert not _check_against_full_path(basis, laser, initial)
        one, _, _ = solve_tracked(basis, laser, initial)
    decomp, tracked, _ = _full_path(basis, laser, initial)
    assert (one.column(0) @ decomp.column(tracked.index)) ** 2 > 0.5


def test_zero_field_and_the_empty_other_class():
    basis, fold = enumerate_basis(1), _fold_only
    one, overlap, index = fold(basis, LaserField(0.0, 0.7), GROUND)
    assert (one.dimension, index, overlap) == (1, 0, 1.0)
    assert one.energy(0) == -0.5
    one, overlap, index = fold(basis, LaserField(0.02, 0.7), GROUND)
    assert (one.dimension, index, overlap) == (1, 0, 1.0)
    assert one.energy(0) == -0.5 + 0.5 * 0.02**2


@pytest.mark.parametrize("initial", [
    GROUND, QuantumNumbers(2, 1, 1), QuantumNumbers(3, 1, -1), QuantumNumbers(2, 1, 0),
], ids=["1s", "2p+1", "3p-1", "2p0"])
def test_zero_field_folds_to_the_bare_state(initial):
    # At A = 0 the class is diagonal: the Ritz start stops at the bare state,
    # whose residual is exactly 0, and no other level of its class ties with
    # it at this omega.  The position is the bare level's column in the
    # stable merge of both classes' spectra, even class first in a tie, as
    # 2p0 ties 2s and 3p-1 ties 3d-1.
    basis, laser = enumerate_basis(4), LaserField(0.0, 0.087)
    one, overlap, index = _fold_only(basis, laser, initial)
    diagonal = np.diag(assemble(basis, laser, parity=initial.parity).entries)
    e_i = diagonal[np.searchsorted(one.rows, basis.position(initial))]
    assert one.energy(0) == e_i
    assert (one.dimension, overlap) == (1, 1.0)
    assert np.count_nonzero(one.column(0)) == 1
    assert np.count_nonzero(diagonal == e_i) == 1
    cols, _ = _merged_columns(basis, laser)
    assert index == cols[initial.parity][np.count_nonzero(diagonal < e_i)]


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
        _, overlap, position = _fold_only(basis, laser, GROUND)
        point = IonizationScanPoint.observe(basis, GROUND, laser, 1e-3)
    assert (position, index) == (0, 0)
    assert abs(overlap - tracked.overlap) <= 1e-12
    assert point.dressed_index == 0
    assert abs(point.overlap - 0.5000658089446299) <= 1e-12


@pytest.mark.parametrize("n0", [6, 10])
@pytest.mark.parametrize("initial", [GROUND, QuantumNumbers(2, 1, 1)],
                         ids=["1s", "2p+1"])
def test_tracked_column_matches_the_refined_eigenpair(n0, initial):
    # fig3's weakest field, where the smallest components are smallest
    basis = enumerate_basis(n0)
    laser = LaserField(UNITS.vector_potential_to_internal(5e-7),
                       UNITS.ev_to_internal(2.37))
    one, _, _ = solve_tracked(basis, laser, initial)
    matrix = assemble(basis, laser, parity=initial.parity)
    column = one.column(0)
    vector, energy = refined_eigenpair(matrix.entries, column, one.energy(0))
    assert abs(one.energy(0) - energy) <= 1e-15
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


def _refined_sigma(basis, laser, initial=GROUND):
    """sigma of each open branch, in atomic units and mu order, from the
    tracked eigenpair refined in extended precision, every component of
    its column summed by test_ionization's loop over the basis."""
    decomp, tracked, _ = _full_path(basis, laser, initial)
    vector, energy = refined_eigenpair(
        assemble(basis, laser, parity=initial.parity).entries,
        decomp.column(tracked.index), decomp.energies[tracked.index],
    )
    refined = EigenDecomposition(
        np.array([energy]), vector[:, None], basis, initial.parity
    )
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


@pytest.mark.parametrize("argv, initial", [
    (STRONG, GROUND), (FIG3, QuantumNumbers(2, 0, 0)), (FIG3, QuantumNumbers(2, 1, -1)),
], ids=["strong-field", "fig3-2s", "fig3-2p-1"])
def test_sigma_where_the_class_solve_picks_the_state_is_the_refined_sigma(
    argv, initial
):
    # The fold does not certify the last 5 points of the strong-field sweep,
    # or 8 and 9 of fig3's field from 2s and 2p-1, each of overlap <= 1/2:
    # the class solve picks the state and the fold restarts from its
    # column.  eigh's own column left sigma there up to 6.1e-4 off.
    basis, lasers = _sweep(argv)
    for laser in lasers:
        point = IonizationScanPoint.observe(basis, initial, laser, 0.0)
        sigma = np.array([r.sigma for r in point.records])
        refined = np.array(_refined_sigma(basis, laser, initial))
        positive = sigma > 0
        np.testing.assert_allclose(
            sigma[positive], refined[positive], rtol=1e-12, atol=0
        )


def test_resonance_sigma_is_the_refined_eigenpair_sigma():
    # the two points of the resonance sweep that RQI from bare 1s left to
    # the full path
    basis, lasers = _sweep(RESONANCE)
    for laser in lasers[1:3]:
        one, _, _ = solve_tracked(basis, laser, GROUND)
        vector, energy = refined_eigenpair(
            assemble(basis, laser).entries, one.column(0), one.energy(0)
        )
        refined = EigenDecomposition(np.array([energy]), vector[:, None], basis, 0)
        sigma = [r.sigma for r in ionization_records(one, 0, laser)]
        exact = [r.sigma for r in ionization_records(refined, 0, laser)]
        np.testing.assert_allclose(sigma, exact, rtol=1e-12, atol=0)


@pytest.mark.parametrize("argv, full, ambiguous", [
    (["ionization", "--preset", "fig3"], slice(0), slice(0)),
    (BENCH_SEED0, slice(0), slice(0)),
    (STRONG, slice(3, None), slice(3, None)),
    (["ionization", "--preset", "fig3", "--initial", "2", "0", "0"],
     slice(2, None), slice(2, None)),
    (["ionization", "--preset", "fig3", "--initial", "2", "1", "-1"],
     slice(1, None), slice(1, None)),
    (ZERO_FIELD, slice(0), slice(0)),
    (ZERO_FIELD + ["--initial", "3", "0", "0"], slice(1), slice(0)),
], ids=["fig3", "ionization-n10-seed0", "strong-field", "fig3-2s", "fig3-2p-1",
        "zero-field-1s", "zero-field-3s"])
def test_meta_lists_the_points_solved_in_full(tmp_path, monkeypatch, argv, full,
                                              ambiguous):
    certified = []
    real_solve, real_diagonalize = ionization.solve_tracked, eigensolver.diagonalize

    def solve(*args):
        certified.append(True)
        return real_solve(*args)

    def diagonalize(matrix):
        certified[-1] = False
        return real_diagonalize(matrix)

    monkeypatch.setattr(ionization, "solve_tracked", solve)
    monkeypatch.setattr(eigensolver, "diagonalize", diagonalize)
    out = tmp_path / "ion.csv"
    assert main(argv + ["--out", str(out)]) == 0
    meta = json.loads((tmp_path / "ion.csv.meta.json").read_text())
    with open(out, newline="") as fh:
        axis = list(dict.fromkeys(float(r["A_vspm"]) for r in csv.DictReader(fh)))
    # The class is solved in full where the fold cannot certify the state: at
    # the points of overlap <= 1/2 that the meta lists as ambiguous (the
    # strong-field sweep's last 5, and fig3's field's last 8 from 2s and 9
    # from 2p-1), and at A = 0 from 3s, which ties 3d0 exactly.
    assert len(certified) == len(axis)
    assert [a for a, ok in zip(axis, certified) if not ok] == axis[full]
    assert meta["ambiguous_axis_values"] == axis[ambiguous]


def test_scan_solves_no_class_where_the_fold_certifies(monkeypatch):
    solved = []
    real = eigensolver.diagonalize
    monkeypatch.setattr(eigensolver, "diagonalize",
                        lambda m: solved.append(m) or real(m))
    basis, lasers = _sweep(BENCH_SEED0[:-1] + ["3"])
    for i, laser in enumerate(lasers):
        IonizationScanPoint.observe(basis, GROUND, laser, i)
    assert solved == []


def test_disc_counts_are_the_eigvalsh_counts_on_the_benchmark_sweep():
    basis, lasers = _sweep(BENCH_SEED0)
    with _counts_checked_against_eigvalsh() as certified:
        for laser in lasers:
            assert _fold_only(basis, laser, GROUND) is not None
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
    # k is the half that holds the row asked for, the even half with none
    basis = enumerate_basis(n0)
    for parity in (0, 1):
        if len(basis.class_positions(parity)) == 0:
            continue  # n0 = 1 has no odd state
        even, odd = basis.class_halves(parity)
        rows = [-1] + [half[-1] for half in (even, odd) if len(half)]
        for amplitude, omega in ((1e-4, 0.087), (0.02, 0.5), (0.3, 0.01)):
            laser = LaserField(amplitude, omega)
            h = assemble(basis, laser, parity=parity).entries
            for row in rows:
                rows_k, d_k, rows_x, d_x, c = eigensolver._halves(
                    basis, laser, parity, row
                )
                assert np.array_equal(rows_k, odd if row in odd else even)
                assert np.array_equal(rows_x, even if row in odd else odd)
                assert np.array_equal(c, h[np.ix_(rows_k, rows_x)])
                assert np.array_equal(d_k, np.diag(h)[rows_k])
                assert np.array_equal(d_x, np.diag(h)[rows_x])


@pytest.mark.parametrize("n0", range(2, 7))
def test_other_class_count_is_the_tie_rule_at_the_folded_half(n0):
    # levels_below folds the mu-odd half away whatever rho is.  At each of
    # that half's bare levels, and one ulp to either side, its count is the
    # tie rule's over eigvalsh of the class, even class first in a tie: at
    # omega = 0.375, 1s and 2p-1 tie at A = 0, and at A = 0 every rho here
    # is a level.
    basis = enumerate_basis(n0)
    for parity in (0, 1):
        _, odd = basis.class_halves(parity)
        for amplitude in (0.0, 1e-3, 0.1):
            for omega in (0.087, 0.375):
                laser = LaserField(amplitude, omega)
                h = assemble(basis, laser, parity=parity).entries
                levels = np.linalg.eigvalsh(h)
                for level in np.diag(h)[odd]:
                    for rho in (np.nextafter(level, -np.inf), level,
                                np.nextafter(level, np.inf)):
                        scale = max(1.0, abs(rho), np.abs(levels).max())
                        tied = np.abs(levels - rho) <= eigensolver._TIE * scale
                        below = np.count_nonzero((levels < rho) & ~tied)
                        expected = below + (parity == 0) * np.count_nonzero(tied)
                        assert levels_below(basis, laser, parity, rho) == expected


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
