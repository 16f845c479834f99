"""Eigenvectors for the initial state's block only.

`diagonalize(matrix, vectors_for=state)` solves the block that holds the
state with eigenvectors and the other block for its eigenvalues alone.
These tests hold it to the full solve, check that the unsolved block
cannot be read, and hold the CLI's CSVs to the full-matrix
`scipy.linalg.eigh` with its default LAPACK routine, as the scans
used before.
"""

import csv
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import laserhydrogen.cli as cli
import laserhydrogen.transitions as transitions
from laserhydrogen import (
    ConfigurationError,
    ContinuumState,
    EigenDecomposition,
    LaserField,
    QuantumNumbers,
    assemble,
    averaged_probability,
    bound_free_element,
    diagonalize,
    enumerate_basis,
    ionization_records,
    time_resolved_probability,
    track_state,
    transition_table,
)

GROUND = QuantumNumbers(1, 0, 0)
ODD = QuantumNumbers(2, 1, 0)  # (l + mu) odd: the block without the ground state


@pytest.fixture(scope="module")
def one_block():
    laser = LaserField(0.3, 0.1)
    matrix = assemble(enumerate_basis(4), laser)
    return diagonalize(matrix, vectors_for=GROUND), diagonalize(matrix), laser


def test_only_the_initial_block_has_vectors(one_block):
    decomp, full, laser = one_block
    # LAPACK's eigenvalue-only path may differ from the vector path in the
    # last bit, so the other block's energies are equal only to rounding
    np.testing.assert_allclose(decomp.energies, full.energies, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(decomp.block_labels, full.block_labels)
    ground_label = decomp.state_labels[decomp.basis.position(GROUND)]
    assert decomp.vector_blocks == {ground_label}
    assert full.vector_blocks == {0, 1}
    unsolved = decomp.block_labels != ground_label
    assert not decomp.coefficients[:, unsolved].any()
    np.testing.assert_allclose(
        np.abs(decomp.coefficients[:, ~unsolved]),
        np.abs(full.coefficients[:, ~unsolved]), rtol=0, atol=1e-12,
    )
    assert list(decomp.near_degenerate_pairs()) == list(full.near_degenerate_pairs())


def test_reading_the_unsolved_block_raises(one_block):
    decomp, full, laser = one_block
    other = int(np.nonzero(decomp.block_labels == decomp.state_labels[
        decomp.basis.position(ODD)])[0][0])
    final = ContinuumState(0.1, 2, 1)
    with pytest.raises(ConfigurationError, match="without eigenvectors"):
        transition_table(decomp, ODD, laser)
    with pytest.raises(ConfigurationError, match="without eigenvectors"):
        track_state(decomp, ODD)
    with pytest.raises(ConfigurationError, match="without eigenvectors"):
        averaged_probability(decomp, GROUND, ODD)
    with pytest.raises(ConfigurationError, match="without eigenvectors"):
        averaged_probability(decomp, ODD, GROUND)
    with pytest.raises(ConfigurationError, match="without eigenvectors"):
        time_resolved_probability(decomp, GROUND, ODD, 1.0, laser.omega)
    with pytest.raises(ConfigurationError, match="without eigenvectors"):
        bound_free_element(decomp, other, final, laser)
    with pytest.raises(ConfigurationError, match="without eigenvectors"):
        bound_free_element(decomp, other, final, LaserField(0.0, laser.omega))
    # the full solve answers the same questions: W across the classes is 0
    assert averaged_probability(full, GROUND, ODD) == 0.0
    assert transition_table(full, ODD, laser).probability(GROUND) == 0.0


def test_reading_the_solved_block_matches_the_full_solve(one_block):
    decomp, full, laser = one_block
    table, reference = (transition_table(d, GROUND, laser) for d in (decomp, full))
    np.testing.assert_allclose(
        table.probabilities, reference.probabilities, rtol=0, atol=1e-14
    )
    tracked = track_state(decomp, GROUND)
    assert tracked == track_state(full, GROUND)
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
    continuum = ContinuumState(0.1, 1, -1)
    assert abs(bound_free_element(decomp, tracked.index, continuum, laser)) == (
        pytest.approx(
            abs(bound_free_element(full, tracked.index, continuum, laser)),
            rel=1e-10,
        )
    )


def test_vectors_for_outside_the_basis():
    matrix = assemble(enumerate_basis(2), LaserField(0.1, 0.1))
    with pytest.raises(ConfigurationError, match="not in basis"):
        diagonalize(matrix, vectors_for=QuantumNumbers(3, 0, 0))


def test_hand_built_decomposition_reads_every_column():
    basis = enumerate_basis(2)
    decomp = EigenDecomposition(
        energies=np.arange(5.0), coefficients=np.eye(5), basis=basis
    )
    table = transition_table(decomp, ODD, LaserField(0.0, 0.1))
    assert table.probability(ODD) == 1.0
    np.testing.assert_array_equal(decomp.column(4), np.eye(5)[:, 4])


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
    matrix = assemble(enumerate_basis(n0), laser)
    decomp = diagonalize(matrix, vectors_for=initial)
    full = diagonalize(matrix)
    np.testing.assert_allclose(decomp.energies, full.energies, rtol=0, atol=1e-12)
    w = transition_table(decomp, initial, laser).probabilities
    w_full = transition_table(full, initial, laser).probabilities
    np.testing.assert_allclose(w, w_full, rtol=0, atol=1e-12)
    assert abs(w.sum() - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(case=_cases())
def test_a2_shifts_energies_and_keeps_w(case):
    n0, initial, amplitude, omega = case
    laser = LaserField(amplitude, omega)
    basis = enumerate_basis(n0)
    with_a2, without = (
        diagonalize(assemble(basis, laser, include_a2=flag), vectors_for=initial)
        for flag in (True, False)
    )
    # evd's reduction is not exactly shift-invariant, so this is not bitwise
    np.testing.assert_allclose(
        with_a2.energies, without.energies + amplitude**2 / 2, rtol=0, atol=1e-12
    )
    tolerance = _w_tolerance(without, initial)
    if tolerance is not None:
        np.testing.assert_allclose(
            transition_table(with_a2, initial, laser).probabilities,
            transition_table(without, initial, laser).probabilities,
            rtol=0, atol=tolerance,
        )


def _w_tolerance(decomp, initial):
    """1e-12, or the rounding bound of W near a close pair of levels.

    Rounding of order eps*|H| turns a dressed state by about eps*|H|/gap,
    gap its distance to the nearest level of its block; evd's W near such
    a pair moves by up to that much (7e-12 at n0 = 3, A = 0.0625,
    omega = 0.5, where the gap is 9.6e-6).  None for an exactly degenerate
    level, whose eigenvectors and hence W are not unique.
    """
    _, cols = decomp.block_of(initial)
    gap = np.diff(decomp.energies[cols]).min(initial=np.inf)
    if gap == 0.0:
        return None
    norm = np.abs(decomp.energies).max()
    return max(1e-12, 4 * np.finfo(float).eps * norm / gap)


@settings(max_examples=15, deadline=None)
@given(case=_cases())
def test_ionization_records_are_physical(case):
    n0, initial, amplitude, omega = case
    laser = LaserField(amplitude, omega)
    decomp = diagonalize(assemble(enumerate_basis(n0), laser), vectors_for=initial)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # strongly mixed states are fine here
        tracked = track_state(decomp, initial)
    for record in ionization_records(decomp, tracked.index, laser):
        assert record.E_f0 > 0
        assert record.sigma >= 0
        assert record.rate_P >= 0


# --- CLI output against the full-matrix solve -------------------------------


def _full_eigh(matrix, vectors_for=None):
    """The scans' earlier eigensolve: `scipy.linalg.eigh` with its default
    LAPACK routine on the whole matrix, every eigenvector computed."""
    energies, vectors = scipy.linalg.eigh(matrix.entries)
    parity = np.array([(s.l + s.mu) % 2 for s in matrix.basis.states])
    # a column's class is that of its largest component; the full solve
    # does not mix the classes, because the matrix has no entries between them
    labels = parity[np.argmax(np.abs(vectors), axis=0)]
    return EigenDecomposition(energies, vectors, matrix.basis, block_labels=labels)


def _run_both(tmp_path, monkeypatch, argv):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    assert cli.main(argv + ["--out", str(new)]) == 0
    monkeypatch.setattr(transitions, "diagonalize", _full_eigh)
    assert cli.main(argv + ["--out", str(ref)]) == 0
    rows = []
    for path in (new, ref):
        with open(path, newline="") as fh:
            rows.append(list(csv.reader(fh))[1:])
    return rows


def test_spectrum_csv_matches_full_solve_fig1_field(tmp_path, monkeypatch):
    new, ref = _run_both(
        tmp_path, monkeypatch, ["spectrum", "--preset", "fig1", "--count", "2"]
    )
    assert [r[:7] + r[8:] for r in new] == [r[:7] + r[8:] for r in ref]
    assert {r[0] for r in new} == {"0.1", "1.0"}
    w_new = np.array([float(r[7]) for r in new])
    w_ref = np.array([float(r[7]) for r in ref])
    np.testing.assert_allclose(w_new, w_ref, rtol=0, atol=1e-10)


def test_ionization_csv_matches_full_solve_fig3_field(tmp_path, monkeypatch):
    new, ref = _run_both(tmp_path, monkeypatch, ["ionization", "--preset", "fig3"])
    assert len(new) == len(ref) > 10
    exact = (0, 1, 2, 5)  # A, omega, dressed_index, mu_branch
    assert [[r[i] for i in exact] for r in new] == [[r[i] for i in exact] for r in ref]
    for column, rel in ((4, 1e-13), (6, 1e-13), (7, 1e-13), (3, 1e-10), (8, 1e-7)):
        np.testing.assert_allclose(
            [float(r[column]) for r in new], [float(r[column]) for r in ref],
            rtol=rel, atol=0,
        )
