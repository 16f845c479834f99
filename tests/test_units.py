import pytest

from laserhydrogen.errors import DomainError
from laserhydrogen.units import BINDING_ENERGY_AU, CONSTANTS, UnitSystem


def test_hartree_in_ev():
    # CODATA 2018 published value
    assert CONSTANTS.hartree_ev == pytest.approx(27.211386245988, rel=1e-11)


def test_bohr_radius():
    assert CONSTANTS.bohr_radius_a0 == pytest.approx(5.29177210903e-11, rel=1e-10)


def test_derived_identities_exact():
    c = CONSTANTS
    assert abs(
        c.bohr_radius_a0
        - c.hbar / (c.fine_structure_alpha * c.electron_mass * c.light_speed)
    ) <= 1e-12 * c.bohr_radius_a0
    assert abs(
        c.hartree - c.fine_structure_alpha**2 * c.electron_mass * c.light_speed**2
    ) <= 1e-12 * c.hartree


def test_vector_potential_unit():
    # hbar/(e a0) in V*s/m
    assert CONSTANTS.vector_potential_au == pytest.approx(1.24384e-5, rel=1e-5)


def test_convert_energy_roundtrip():
    u = UnitSystem()
    assert u.ev_to_internal(u.internal_to_ev(3.7)) == pytest.approx(3.7, rel=1e-14)
    assert u.internal_to_ev(1.0) == pytest.approx(27.211386245988, rel=1e-11)
    assert u.ev_to_internal(27.211386245988) == pytest.approx(1.0, rel=1e-11)


def test_convert_vector_potential():
    u = UnitSystem()
    assert u.vector_potential_to_internal(5e-6) == pytest.approx(0.40198, rel=1e-4)
    with pytest.raises(DomainError):
        u.vector_potential_to_internal(-1e-6)


def test_unit_system_plain():
    u = UnitSystem()
    assert u.mass_factor == 1.0
    assert u.ev_to_internal(u.internal_to_ev(0.3)) == pytest.approx(0.3, rel=1e-14)
    assert u.internal_to_ev(BINDING_ENERGY_AU) == pytest.approx(
        13.605693122994, rel=1e-11
    )
    assert u.cross_section_to_pi_a0sq(2.5) == 2.5


def test_unit_system_reduced_mass():
    u = UnitSystem(reduced_mass=True)
    me = CONSTANTS.electron_mass
    mp = CONSTANTS.proton_mass
    assert u.mass_factor == pytest.approx(mp / (me + mp), rel=1e-15)
    assert 0.99945 < u.mass_factor < 0.99946
    # hydrogen ionization energy with the reduced-mass correction
    assert u.internal_to_ev(BINDING_ENERGY_AU) == pytest.approx(
        0.5 * CONSTANTS.hartree_ev * mp / (me + mp), rel=1e-14
    )
    # sigma reported in true pi*a0^2 units grows by 1/mass_factor^2
    assert u.cross_section_to_pi_a0sq(1.0) == pytest.approx(
        1.0 / u.mass_factor**2, rel=1e-15
    )
    with pytest.raises(DomainError):
        u.vector_potential_to_internal(-1.0)


def test_binding_energy_constant():
    assert BINDING_ENERGY_AU == 0.5
