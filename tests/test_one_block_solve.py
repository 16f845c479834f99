"""The initial state's parity class, assembled and solved alone.

A scan assembles only the class of its initial state
(`assemble(..., parity=p)`) and `diagonalize` stores that class's
energies and vectors.  These tests hold it to `numpy.linalg.eigh` and
`scipy.linalg.eigh` of the whole-basis H of `tests/oracles.py`, check that
the other class cannot be read, that a level's class rank plus
`levels_below` of the other class is its column in a stable merge of both
classes' spectra,
that no matrix over the whole basis is allocated on the scan path, and
hold the CLI's CSVs to the full-matrix `scipy.linalg.eigh` with its
default LAPACK routine, as the scans used before.
"""

import csv
import sys
from functools import partial
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import laserhydrogen.cli as cli
import laserhydrogen.eigensolver as eigensolver
import laserhydrogen.transitions as transitions
from laserhydrogen import (
    DEGENERACY_GAP,
    ConfigurationError,
    EigenDecomposition,
    LaserField,
    QuantumNumbers,
    UnitSystem,
    assemble,
    bound_free_element,
    diagonalize,
    enumerate_basis,
    ionization_records,
    time_resolved_probability,
    track_state,
    transition_table,
)
from laserhydrogen.eigensolver import levels_below
from laserhydrogen.ionization import IonizationScanPoint
from oracles import averaged_probability, ionization_rate, whole_hamiltonian

GROUND = QuantumNumbers(1, 0, 0)
ODD = QuantumNumbers(2, 1, 0)  # (l + mu) odd: the class without the ground state


def _parity(state):
    return (state.l + state.mu) % 2


def _class_solve(basis, laser, initial):
    """The scan's eigensolve: the initial state's class alone."""
    return diagonalize(assemble(basis, laser, parity=_parity(initial)))


def _whole_eigh_of_class(basis, laser, parity, eigh=np.linalg.eigh):
    """eigh of the whole-basis H, restricted to the rows and the dressed
    states of one class, as a decomposition of that class.

    A column's class is that of its largest component; at the fields used
    here the whole solve does not mix the classes.  Also returns the column
    of each of the class's levels in the whole spectrum.
    """
    energies, vectors = eigh(whole_hamiltonian(basis, laser))
    rows = basis.class_positions(parity)
    cols = np.flatnonzero(basis.parity[np.argmax(np.abs(vectors), axis=0)] == parity)
    decomp = EigenDecomposition(
        energies[cols], vectors[np.ix_(rows, cols)], basis, parity
    )
    return decomp, cols


def _position(decomp, index, laser):
    """Position of the class's dressed state `index` in the whole spectrum:
    its class rank plus the other class's levels below it."""
    return index + levels_below(
        decomp.basis, laser, 1 - decomp.parity, decomp.energy(index)
    )


def _merged_columns(basis, laser):
    """Column of each level of class 0 and of class 1 in the stable merge
    of both classes' eigenvalues of the whole-basis H, class 0 first in a
    tie; and the merged energies."""
    whole = whole_hamiltonian(basis, laser)
    levels = [
        np.linalg.eigvalsh(whole[np.ix_(rows, rows)])
        for rows in (basis.class_positions(p) for p in (0, 1))
    ]
    energies = np.concatenate(levels)
    order = np.argsort(energies, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    return (column[:len(levels[0])], column[len(levels[0]):]), energies[order]


@pytest.fixture(scope="module")
def one_block():
    laser = LaserField(0.3, 0.1)
    basis = enumerate_basis(4)
    whole = _whole_eigh_of_class(basis, laser, 0)
    return _class_solve(basis, laser, GROUND), whole, laser


def test_only_the_initial_block_has_vectors(one_block):
    decomp, _, laser = one_block
    parity = np.array([_parity(s) for s in decomp.basis.states])
    np.testing.assert_array_equal(decomp.rows, np.nonzero(parity == 0)[0])
    assert decomp.parity == 0
    assert decomp.coefficients.shape == (len(decomp.rows),) * 2
    # the class is handed to LAPACK as the class block of the whole-basis H
    block = whole_hamiltonian(decomp.basis, laser)[np.ix_(decomp.rows, decomp.rows)]
    energies, vectors = np.linalg.eigh(block)
    np.testing.assert_allclose(decomp.energies, energies, rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        np.abs(decomp.coefficients), np.abs(vectors), rtol=0, atol=1e-12,
    )
    pairs = np.flatnonzero(np.diff(energies) < DEGENERACY_GAP)
    gaps = np.diff(decomp.energies)
    assert list(np.flatnonzero(gaps < DEGENERACY_GAP)) == list(pairs)


def test_reading_the_unsolved_block_raises(one_block):
    decomp, _, laser = one_block
    with pytest.raises(ConfigurationError, match="parity class"):
        transition_table(decomp, ODD)
    with pytest.raises(ConfigurationError, match="parity class"):
        track_state(decomp, ODD)
    with pytest.raises(ConfigurationError, match="parity class"):
        averaged_probability(decomp, GROUND, ODD)
    with pytest.raises(ConfigurationError, match="parity class"):
        averaged_probability(decomp, ODD, GROUND)
    with pytest.raises(ConfigurationError, match="parity class"):
        time_resolved_probability(decomp, GROUND, ODD, 1.0, laser.omega)
    # the class holds only its own dressed states
    for index in (decomp.dimension, -1):
        with pytest.raises(ConfigurationError, match="not among"):
            bound_free_element(decomp, index, 1, 0.1)
    # each class's table answers the other class's question: W across is 0
    odd = _class_solve(decomp.basis, laser, ODD)
    assert transition_table(decomp, GROUND).probability(ODD) == 0.0
    assert transition_table(odd, ODD).probability(GROUND) == 0.0


def test_reading_the_solved_block_matches_the_full_solve(one_block):
    decomp, (full, cols), laser = one_block
    table, reference = (transition_table(d, GROUND) for d in (decomp, full))
    np.testing.assert_allclose(
        table.probabilities, reference.probabilities, rtol=0, atol=1e-14
    )
    tracked, tracked_full = track_state(decomp, GROUND), track_state(full, GROUND)
    assert tracked.overlap == pytest.approx(tracked_full.overlap, rel=1e-12)
    assert _position(decomp, tracked.index, laser) == cols[tracked_full.index]
    final = QuantumNumbers(3, 2, 2)
    assert averaged_probability(decomp, GROUND, final) == pytest.approx(
        averaged_probability(full, GROUND, final), rel=1e-12
    )
    assert time_resolved_probability(
        decomp, GROUND, final, 3.0, laser.omega
    ) == pytest.approx(
        time_resolved_probability(full, GROUND, final, 3.0, laser.omega),
        rel=1e-10,
    )
    # the partial wave l_f = 1 of the branch mu = -1
    p_l = bound_free_element(decomp, tracked.index, -1, 0.1)[0]
    assert abs(p_l) == pytest.approx(
        abs(bound_free_element(full, tracked_full.index, -1, 0.1)[0]), rel=1e-10
    )


def test_initial_state_outside_the_basis():
    with pytest.raises(ConfigurationError, match="parity must be"):
        assemble(enumerate_basis(2), LaserField(0.1, 0.1), parity=2)
    (result,) = transitions.scan(
        [0.1], [LaserField(0.1, 0.1)],
        partial(transitions.ScanPoint.observe, enumerate_basis(2),
                QuantumNumbers(3, 0, 0)),
    )
    assert result.type == "ConfigurationError"
    assert "not in basis" in result.error
    # at n0 = 1 the class of an odd initial state is empty
    (result,) = transitions.scan(
        [0.1], [LaserField(0.1, 0.1)],
        partial(transitions.ScanPoint.observe, enumerate_basis(1), ODD),
    )
    assert result.type == "ConfigurationError"
    assert "no state of the n0=1 basis has parity 1" in result.error


@pytest.mark.parametrize("n0", [10, 18])
@pytest.mark.parametrize("initial", [GROUND, ODD], ids=["even", "odd"])
def test_class_solve_matches_full_eigh_fig1_field(n0, initial):
    units = UnitSystem()
    laser = LaserField(
        units.vector_potential_to_internal(5e-6), units.ev_to_internal(0.5)
    )
    basis = enumerate_basis(n0)
    decomp = _class_solve(basis, laser, initial)
    energies, vectors = scipy.linalg.eigh(whole_hamiltonian(basis, laser))
    parity = np.array([_parity(s) for s in basis.states])
    # a column's class is that of its largest component
    in_class = parity[np.argmax(np.abs(vectors), axis=0)] == _parity(initial)
    np.testing.assert_allclose(decomp.energies, energies[in_class], rtol=0, atol=1e-12)
    start = basis.position(initial)
    w_full = (vectors**2) @ (vectors[start] ** 2)
    w = transition_table(decomp, initial).probabilities
    np.testing.assert_allclose(w, w_full, rtol=0, atol=1e-12)


@st.composite
def _cases(draw):
    n0 = draw(st.integers(min_value=2, max_value=7))
    n = draw(st.integers(min_value=1, max_value=n0))
    l = draw(st.integers(min_value=0, max_value=n - 1))
    mu = draw(st.integers(min_value=-l, max_value=l))
    amplitude = draw(st.floats(min_value=0.0, max_value=0.5))
    omega = draw(st.floats(min_value=1e-3, max_value=0.5))
    return n0, QuantumNumbers(n, l, mu), amplitude, omega


@settings(max_examples=40, deadline=None)
@given(case=_cases())
def test_one_block_solve_equals_full_solve(case):
    n0, initial, amplitude, omega = case
    laser = LaserField(amplitude, omega)
    basis = enumerate_basis(n0)
    decomp = _class_solve(basis, laser, initial)
    whole = whole_hamiltonian(basis, laser)
    # the class's levels are its part of the whole-basis spectrum
    cols, merged = _merged_columns(basis, laser)
    np.testing.assert_allclose(merged, np.linalg.eigvalsh(whole), rtol=0, atol=1e-12)
    cols = cols[_parity(initial)]
    np.testing.assert_allclose(decomp.energies, merged[cols], rtol=0, atol=1e-12)
    # W against the vectors of the class block of the whole-basis H; with
    # exactly tied levels in the two classes, an eigh of the whole matrix
    # may return any mixture of them
    rows = decomp.rows
    _, vectors = np.linalg.eigh(whole[np.ix_(rows, rows)])
    start = int(np.searchsorted(rows, basis.position(initial)))
    w_full = np.zeros(len(basis))
    w_full[rows] = (vectors**2) @ (vectors[start] ** 2)
    w = transition_table(decomp, initial).probabilities
    np.testing.assert_allclose(w, w_full, rtol=0, atol=1e-12)
    assert abs(w.sum() - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(case=_cases())
def test_dressed_index_is_the_position_in_the_full_spectrum(case):
    n0, initial, amplitude, omega = case
    laser = LaserField(amplitude, omega)
    basis = enumerate_basis(n0)
    decomp = _class_solve(basis, laser, initial)
    # the stable merge puts the class's i-th level at column cols[i]
    cols, merged = _merged_columns(basis, laser)
    cols = cols[_parity(initial)]
    other = np.delete(merged, cols)
    # Levels with no partner in the field are exactly diagonal entries, and
    # two of them in different classes can tie exactly; evd returns such a
    # level to within a few ulp, so rounding orders a tie, in the class's
    # vector solve and in the eigenvalues alone that the merge and
    # levels_below compare, each its own way (exact ties:
    # test_exact_cross_class_tie_at_zero_field).  Compare the other levels.
    resolution = 64 * np.finfo(float).eps * np.abs(merged).max()
    for i, e_i in enumerate(decomp.energies):
        if not np.any(np.abs(other - e_i) <= resolution):
            assert _position(decomp, i, laser) == cols[i]


class _ClassSolve(Exception):
    """Raised by `_fold_only` in place of the class solve."""


def _fold_only(basis, laser, target):
    """The fold's own attempt at the tracked state of `target`:
    `solve_tracked`'s result where the fold certifies it, None where it
    would solve the class."""
    with mock.patch.object(eigensolver, "diagonalize", side_effect=_ClassSolve):
        try:
            return eigensolver.solve_tracked(basis, laser, target)
        except _ClassSolve:
            return None


@pytest.mark.parametrize("initial", [QuantumNumbers(2, 0, 0), ODD], ids=["even", "odd"])
def test_exact_cross_class_tie_at_zero_field(initial):
    # At A = 0 the levels are the diagonal E_n + mu*omega: (2, 0, 0), even,
    # and (2, 1, 0), odd, both lie exactly at E_2.  A stable merge of the
    # classes' spectra, even class first, puts the even state of the tie
    # first and the odd one second.  The fold certifies the tracked state of
    # either, and an ionization point places it there.
    laser = LaserField(0.0, 0.05)
    basis = enumerate_basis(3)
    cols, merged = _merged_columns(basis, laser)
    tie = tuple(
        int(cols[_parity(s)][track_state(_class_solve(basis, laser, s), s).index])
        for s in (QuantumNumbers(2, 0, 0), ODD)
    )
    assert merged[tie[0]] == merged[tie[1]] == -0.125
    assert tie[1] == tie[0] + 1
    decomp = _class_solve(basis, laser, initial)
    tracked = track_state(decomp, initial)
    assert _position(decomp, tracked.index, laser) == tie[_parity(initial)]
    point = IonizationScanPoint.observe(basis, initial, laser, 0.0)
    assert point.dressed_index == tie[_parity(initial)]
    assert _fold_only(basis, laser, initial) is not None


@pytest.mark.parametrize("initial, position", [(QuantumNumbers(2, 0, 0), 2), (ODD, 3)],
                         ids=["even", "odd"])
def test_exact_cross_class_tie_in_a_field(initial, position):
    # At n0 = 2, p_x has no element between states of one shell, so it
    # couples neither 2s, even, nor 2p0, odd and alone in its class: both
    # stay at E_2 + A^2/2 at every field.  Below them lie 2p-1 and 1s, and
    # even class first, 2s is at 2 and 2p0 at 3.  The fold places either
    # there, and the count of the other class is the tie rule's at the
    # level and one ulp to either side of it.
    basis, laser = enumerate_basis(2), LaserField(0.171875, 0.5)
    (level,) = np.linalg.eigvalsh(assemble(basis, laser, parity=1).entries)
    assert level == -0.125 + 0.171875**2 / 2
    point = IonizationScanPoint.observe(basis, initial, laser, 0.0)
    assert point.dressed_index == position
    assert _fold_only(basis, laser, initial) is not None
    for rho in (np.nextafter(level, -1.0), level, np.nextafter(level, 0.0)):
        assert levels_below(basis, laser, 1, rho) == 0
        assert levels_below(basis, laser, 0, rho) == 3


@settings(max_examples=15, deadline=None)
@given(case=_cases())
def test_ionization_records_are_physical(case):
    n0, initial, amplitude, omega = case
    laser = LaserField(amplitude, omega)
    decomp = _class_solve(enumerate_basis(n0), laser, initial)
    tracked = track_state(decomp, initial)
    for record in ionization_records(decomp, tracked.index, laser):
        assert record.E_f0 > 0
        assert record.sigma >= 0
        assert ionization_rate(decomp, tracked.index, record, amplitude) >= 0


# --- no matrix over the whole basis on the scan path --------------------------


def _largest_step(run):
    """Largest growth of traced memory while one line of Python runs.

    A line that allocates a block of b bytes grows the traced memory by at
    least b (its temporaries are freed only after it), so this bounds from
    above the largest block that `run` allocates.
    """
    largest = last = 0

    def trace(frame, event, arg):
        nonlocal largest, last
        current, peak = tracemalloc.get_traced_memory()
        largest = max(largest, peak - last)
        tracemalloc.reset_peak()
        last = current
        return trace

    tracemalloc.start()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return largest


@pytest.mark.parametrize("point", [
    transitions.ScanPoint, IonizationScanPoint,
], ids=["spectrum", "ionization"])
def test_scan_point_allocates_no_whole_basis_matrix(point):
    basis = enumerate_basis(14)
    units = UnitSystem()
    laser = LaserField(
        units.vector_potential_to_internal(5e-6), units.ev_to_internal(2.37)
    )
    def run():
        observe = partial(point.observe, basis, GROUND)
        for result in transitions.scan([2.37], [laser], observe):
            assert not result.failed

    run()  # fill the coupling and bound-free caches first
    whole = 8 * len(basis) ** 2
    # A whole-basis H or C would be one block of `whole` bytes.  The largest
    # line of the class path is the eigensolve: LAPACK's copy of the ground
    # state's class (560 of the 1015 states) and its workspace of twice that,
    # 0.92 of `whole`.
    assert _largest_step(run) < whole


# --- CLI output against the full-matrix solve -------------------------------


class _FullEigh:
    """The scans' earlier eigensolve: `scipy.linalg.eigh` with its default
    LAPACK routine on the whole matrix, every eigenvector computed, then
    restricted to the class a matrix holds, as the scan keeps it.

    `levels_below` gives the number of the other class's columns before a
    class level of energy rho in that whole spectrum, so that the class rank
    plus it is the dressed_index of the earlier scans.  A matrix does not
    keep its field, so `assemble` stands in for the scans' own and records
    the field of the matrix that the solve after it reads.
    """

    def assemble(self, basis, laser, *, parity=0):
        self.laser = laser
        return assemble(basis, laser, parity=parity)

    def __call__(self, matrix):
        decomp, self.cols = _whole_eigh_of_class(
            matrix.basis, self.laser, matrix.parity, eigh=scipy.linalg.eigh,
        )
        self.energies = decomp.energies
        return decomp

    def levels_below(self, basis, laser, parity, rho):
        index = int(np.searchsorted(self.energies, rho))
        return int(self.cols[index]) - index


def _run_both(tmp_path, monkeypatch, argv, reference):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    assert cli.main(argv + ["--out", str(new)]) == 0
    monkeypatch.setattr(transitions, "assemble", reference.assemble)
    monkeypatch.setattr(transitions, "diagonalize", reference)
    # with no Rayleigh-quotient iteration to converge, an ionization point
    # takes the class solve and keeps its column: the reference solve gives
    # its state, column, energy and index
    monkeypatch.setattr(eigensolver, "_rayleigh_quotient_iteration",
                        lambda *args: None)
    monkeypatch.setattr(eigensolver, "assemble", reference.assemble)
    monkeypatch.setattr(eigensolver, "diagonalize", reference)
    monkeypatch.setattr(eigensolver, "levels_below", reference.levels_below)
    assert cli.main(argv + ["--out", str(ref)]) == 0
    rows = []
    for path in (new, ref):
        with open(path, newline="") as fh:
            rows.append(list(csv.reader(fh))[1:])
    return rows


def test_spectrum_csv_matches_full_solve_fig1_field(tmp_path, monkeypatch):
    new, ref = _run_both(
        tmp_path, monkeypatch, ["spectrum", "--preset", "fig1", "--count", "2"],
        _FullEigh(),
    )
    assert [r[:7] + r[8:] for r in new] == [r[:7] + r[8:] for r in ref]
    assert {r[0] for r in new} == {"0.1", "1.0"}
    w_new = np.array([float(r[7]) for r in new])
    w_ref = np.array([float(r[7]) for r in ref])
    np.testing.assert_allclose(w_new, w_ref, rtol=0, atol=1e-10)


def test_ionization_csv_matches_full_solve_fig3_field(tmp_path, monkeypatch):
    # the reference's dressed_index is the tracked column of the full
    # spectrum, not a count of the other class's levels
    new, ref = _run_both(
        tmp_path, monkeypatch, ["ionization", "--preset", "fig3"], _FullEigh()
    )
    assert len(new) == len(ref) > 10
    exact = (0, 1, 2, 5)  # A, omega, dressed_index, mu_branch
    assert [[r[i] for i in exact] for r in new] == [[r[i] for i in exact] for r in ref]
    for column, rel in ((4, 1e-13), (6, 1e-13), (7, 1e-13), (3, 1e-10), (8, 1e-7)):
        np.testing.assert_allclose(
            [float(r[column]) for r in new], [float(r[column]) for r in ref],
            rtol=rel, atol=0,
        )
