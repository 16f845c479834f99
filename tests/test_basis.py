import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

from laserhydrogen.basis import (
    N0_CAP,
    BasisSet,
    QuantumNumbers,
    angular_x,
    bound_energy,
    enumerate_basis,
    radial_length_integral,
)
from laserhydrogen.errors import ConfigurationError
from oracles import (
    make_radial_grid,
    overlap,
    px_matrix_element,
    radial_wavefunction,
    x_matrix_element,
)


# --- labels and enumeration ----------------------------------------------

def test_quantum_number_validation():
    QuantumNumbers(3, 2, -2)  # valid
    with pytest.raises(ConfigurationError):
        QuantumNumbers(0, 0, 0)
    with pytest.raises(ConfigurationError):
        QuantumNumbers(2, 2, 0)
    with pytest.raises(ConfigurationError):
        QuantumNumbers(2, 1, 2)


@pytest.mark.parametrize("labels", [
    (1.5, 0, 0), (1.0, 0, 0), (2, 1.0, 0), (2, 1, 0.0), (2, 1, np.float64(1)),
    (True, 0, 0), (2, True, 0), (2, 1, False),
], ids=["n-1.5", "n-1.0", "l-float", "mu-float", "mu-numpy-float",
        "n-bool", "l-bool", "mu-bool"])
def test_quantum_numbers_must_be_integers(labels):
    # 1.5 used to pass every range check and read the position of 1s
    with pytest.raises(ConfigurationError, match="must be an integer"):
        QuantumNumbers(*labels)


def test_quantum_numbers_take_numpy_integers():
    state = QuantumNumbers(np.int64(3), np.int32(2), np.int8(-1))
    assert state == QuantumNumbers(3, 2, -1)
    assert enumerate_basis(3).position(state) == enumerate_basis(3).position(
        QuantumNumbers(3, 2, -1)
    )


@pytest.mark.parametrize("n0", [1, 2, 5, 10, 18])
def test_basis_size(n0):
    basis = enumerate_basis(n0)
    assert len(basis) == n0 * (n0 + 1) * (2 * n0 + 1) // 6


def test_basis_size_2109_at_n0_18():
    assert len(enumerate_basis(18)) == 2109


def test_basis_ordering_and_lookup():
    basis = enumerate_basis(3)
    assert basis.states[0] == QuantumNumbers(1, 0, 0)
    assert list(basis.states) == sorted(basis.states)
    for i, s in enumerate(basis.states):
        assert basis.position(s) == i
    assert QuantumNumbers(3, 2, 2) in basis
    assert QuantumNumbers(4, 0, 0) not in basis


@pytest.mark.parametrize("n0", range(1, N0_CAP + 1))
def test_position_is_the_enumeration_index(n0):
    basis = enumerate_basis(n0)
    assert [basis.position(s) for s in basis.states] == list(range(len(basis)))
    assert all(s in basis for s in basis.states)
    outside = [QuantumNumbers(n0 + 1, l, mu) for l in range(n0 + 1)
               for mu in range(-l, l + 1)]
    assert not any(s in basis for s in outside)
    with pytest.raises(ConfigurationError, match="not in basis"):
        basis.position(outside[0])
    # the positions of shell n are those of its states, in basis order
    shells = [n for n in range(1, n0 + 1) for _ in range(len(basis))[basis.shell(n)]]
    assert shells == [s.n for s in basis.states]
    for n in (0, n0 + 1):
        with pytest.raises(ConfigurationError, match="not in basis"):
            basis.shell(n)


@pytest.mark.parametrize("n0", [1, 4, 18])
def test_state_arrays_are_the_per_state_values(n0):
    basis = enumerate_basis(n0)
    parity = [(s.l + s.mu) % 2 for s in basis.states]
    assert [s.parity for s in basis.states] == parity
    assert basis.parity.tolist() == parity
    assert basis.energy.tolist() == [bound_energy(s.n) for s in basis.states]
    assert basis.mu.tolist() == [s.mu for s in basis.states]
    for arr in (basis.parity, basis.energy, basis.mu):
        assert not arr.flags.writeable
    for p in (0, 1):
        positions = basis.class_positions(p).tolist()
        assert positions == [i for i, q in enumerate(parity) if q == p]
    both = np.concatenate([basis.class_positions(p) for p in (0, 1)])
    assert sorted(both.tolist()) == list(range(len(basis)))  # a partition


def test_basis_n0_bounds():
    with pytest.raises(ConfigurationError):
        enumerate_basis(0)
    with pytest.raises(ConfigurationError):
        enumerate_basis(31)
    # a basis is its n0, checked however it is built
    assert BasisSet(3) == enumerate_basis(3)
    for n0 in (0, 31, True):
        with pytest.raises(ConfigurationError):
            BasisSet(n0)


def test_bound_energy():
    assert bound_energy(1) == -0.5
    assert bound_energy(2) == -0.125
    with pytest.raises(ConfigurationError):
        bound_energy(0)


# --- radial wavefunctions -------------------------------------------------

def test_radial_wavefunction_known_forms():
    r = np.linspace(0.01, 20, 50)
    np.testing.assert_allclose(
        radial_wavefunction(1, 0, r), 2 * np.exp(-r), rtol=1e-13
    )
    np.testing.assert_allclose(
        radial_wavefunction(2, 0, r),
        (1 / math.sqrt(2)) * (1 - r / 2) * np.exp(-r / 2),
        rtol=1e-12, atol=1e-15,
    )
    np.testing.assert_allclose(
        radial_wavefunction(2, 1, r),
        (1 / (2 * math.sqrt(6))) * r * np.exp(-r / 2),
        rtol=1e-13,
    )


def test_radial_wavefunction_origin_value():
    assert radial_wavefunction(1, 0, 1e-12) == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("n,l", [(1, 0), (3, 1), (5, 0), (8, 4), (12, 3)])
def test_radial_normalization(n, l):
    grid = make_radial_grid(4 * n + 20, scale=2.0 / n)
    vals = radial_wavefunction(n, l, grid.nodes) ** 2 * grid.nodes**2
    assert grid.integrate(vals) == pytest.approx(1.0, rel=1e-11)


@pytest.mark.parametrize("n,l", [(2, 0), (4, 1), (6, 2), (9, 0)])
def test_radial_node_count(n, l):
    r = np.linspace(1e-6, 3.0 * n * n, 60_000)
    vals = radial_wavefunction(n, l, r)
    nodes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
    assert nodes == n - l - 1


def test_overlap_orthonormal():
    states = [
        QuantumNumbers(n, l, 0) for n in range(1, 7) for l in range(min(n, 3))
    ]
    for a in states:
        for b in states:
            expected = 1.0 if a == b else 0.0
            assert overlap(a, b) == pytest.approx(expected, abs=1e-12)


def test_overlap_angular_zero():
    assert overlap(QuantumNumbers(2, 1, 0), QuantumNumbers(2, 1, 1)) == 0.0
    assert overlap(QuantumNumbers(2, 0, 0), QuantumNumbers(2, 1, 0)) == 0.0


# --- angular factors: spherical-harmonic quadrature oracle ----------------

def _angular_x_quad(l_bra, mu_bra, l_ket, mu_ket):
    """<Y_l'mu'| sin(theta) cos(phi) |Y_l mu> by product quadrature."""
    x, wx = np.polynomial.legendre.leggauss(48)
    theta = np.arccos(x)
    nphi = 64
    phi = 2 * np.pi * np.arange(nphi) / nphi
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    integ = (
        np.conj(sph_harm_y(l_bra, mu_bra, th, ph))
        * np.sin(th) * np.cos(ph)
        * sph_harm_y(l_ket, mu_ket, th, ph)
    )
    return float(
        np.real(np.sum(integ * wx[:, None]) * (2 * np.pi / nphi))
    )


@pytest.mark.parametrize(
    "l_bra,mu_bra,l_ket,mu_ket",
    [
        (1, 1, 0, 0), (0, 0, 1, 1), (1, -1, 0, 0), (0, 0, 1, -1),
        (2, 1, 1, 0), (1, 0, 2, 1), (2, -2, 1, -1), (1, 1, 2, 2),
        (3, 0, 2, 1), (2, 2, 3, 3), (4, -3, 3, -2), (3, 2, 4, 1),
    ],
)
def test_angular_x_vs_quadrature(l_bra, mu_bra, l_ket, mu_ket):
    assert angular_x(l_bra, mu_bra, l_ket, mu_ket) == pytest.approx(
        _angular_x_quad(l_bra, mu_bra, l_ket, mu_ket), abs=1e-12
    )


def test_angular_x_selection_rules():
    assert angular_x(2, 0, 2, 1) == 0.0   # dl = 0
    assert angular_x(3, 1, 1, 0) == 0.0   # |dl| = 2
    assert angular_x(2, 0, 1, 0) == 0.0   # dmu = 0
    assert angular_x(2, 2, 1, 0) == 0.0   # |dmu| = 2


def test_angular_x_known_value():
    # <Y_11 | sin t cos p | Y_00> = -1/sqrt(6)
    assert angular_x(1, 1, 0, 0) == pytest.approx(-1 / math.sqrt(6), rel=1e-14)
    assert angular_x(1, -1, 0, 0) == pytest.approx(1 / math.sqrt(6), rel=1e-14)


# --- radial integrals: Gauss-Laguerre quadrature oracle -------------------

def _radial_integral_quad(n1, l1, n2, l2):
    grid = make_radial_grid(4 * max(n1, n2) + 30, scale=1.0 / n1 + 1.0 / n2)
    r = grid.nodes
    return grid.integrate(
        radial_wavefunction(n1, l1, r) * r * radial_wavefunction(n2, l2, r) * r**2
    )


def test_radial_length_integral_1s_2p():
    # classic value 128*sqrt(6)/243 (the oft-quoted 128*sqrt(2)/243 absorbs
    # an extra angular factor of 1/sqrt(3))
    val = radial_length_integral(1, 0, 2, 1)
    assert val == pytest.approx(128 * math.sqrt(6) / 243, rel=1e-14)
    assert val == pytest.approx(math.sqrt(3) * 128 * math.sqrt(2) / 243, rel=1e-14)


@pytest.mark.parametrize(
    "n1,l1,n2,l2",
    [
        (1, 0, 2, 1), (2, 1, 3, 2), (2, 0, 3, 1), (1, 0, 9, 1),
        (5, 3, 7, 4), (10, 2, 10, 3), (12, 11, 12, 10), (12, 0, 13, 1),
    ],
)
def test_radial_length_integral_vs_quadrature(n1, l1, n2, l2):
    assert radial_length_integral(n1, l1, n2, l2) == pytest.approx(
        _radial_integral_quad(n1, l1, n2, l2), rel=1e-10
    )


# --- x and p_x matrix elements --------------------------------------------

_PAIRS = [
    (QuantumNumbers(1, 0, 0), QuantumNumbers(2, 1, 1)),
    (QuantumNumbers(2, 1, -1), QuantumNumbers(3, 2, -2)),
    (QuantumNumbers(3, 2, 0), QuantumNumbers(4, 1, 1)),
    (QuantumNumbers(4, 3, 2), QuantumNumbers(6, 2, 1)),
    (QuantumNumbers(5, 1, 0), QuantumNumbers(2, 0, 0)),
]


def test_x_antisymmetric_px_symmetric():
    for a, b in _PAIRS:
        assert x_matrix_element(a, b) == pytest.approx(
            -x_matrix_element(b, a), rel=1e-14
        )
        assert px_matrix_element(a, b) == pytest.approx(
            px_matrix_element(b, a), rel=1e-14
        )


def test_commutator_identity():
    # p_x = i[H0, x]: px(a,b) = (E_b - E_a) * X(a,b), exact in this basis
    for a, b in _PAIRS:
        assert px_matrix_element(a, b) == pytest.approx(
            (bound_energy(b.n) - bound_energy(a.n)) * x_matrix_element(a, b),
            rel=1e-15,
        )


def test_px_vanishes_for_degenerate_pairs():
    assert px_matrix_element(QuantumNumbers(2, 0, 0), QuantumNumbers(2, 1, 1)) == 0.0
    assert px_matrix_element(QuantumNumbers(3, 1, 0), QuantumNumbers(3, 2, 1)) == 0.0


def test_selection_rules_zero():
    a = QuantumNumbers(1, 0, 0)
    assert x_matrix_element(a, QuantumNumbers(3, 2, 1)) == 0.0
    assert px_matrix_element(a, QuantumNumbers(2, 1, 0)) == 0.0


def _px_gradient_quad(a, b):
    """Independent oracle: velocity-form <a|p_x|b> via the gradient formula."""
    if abs(a.l - b.l) != 1 or abs(a.mu - b.mu) != 1:
        return 0.0
    grid = make_radial_grid(4 * max(a.n, b.n) + 40, scale=1.0 / a.n + 1.0 / b.n)
    r = grid.nodes
    h = 1e-6
    db = (radial_wavefunction(b.n, b.l, r + h)
          - radial_wavefunction(b.n, b.l, r - h)) / (2 * h)
    rb = radial_wavefunction(b.n, b.l, r)
    if a.l == b.l + 1:
        sign, radial_part = -1.0, db - b.l * rb / r
    else:
        sign, radial_part = 1.0, db + (b.l + 1) * rb / r
    rad = grid.integrate(radial_wavefunction(a.n, a.l, r) * radial_part * r**2)
    return sign * angular_x(a.l, a.mu, b.l, b.mu) * rad


@pytest.mark.parametrize("a,b", _PAIRS)
def test_px_vs_gradient_formula(a, b):
    assert px_matrix_element(a, b) == pytest.approx(
        _px_gradient_quad(a, b), rel=1e-7
    )
