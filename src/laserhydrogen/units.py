"""Physical constants and unit conversions.

All internal computation uses atomic units (hbar = m_e = e = 1, energies in
hartree, lengths in Bohr radii).  Conversions happen only at I/O boundaries:
energies cross in eV, vector-potential amplitudes in V*s/m.

CODATA 2018 primitives are stored to full published precision; the Bohr
radius and the hartree are *derived* from them so the defining identities
a0 = hbar/(alpha*m*c) and E_h = alpha^2*m*c^2 hold to machine precision.
"""

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 constants in SI units, as class attributes that neither
    the constructor nor an assignment can change."""

    fine_structure_alpha = 7.2973525693e-3
    electron_mass = 9.1093837015e-31        # kg
    elementary_charge = 1.602176634e-19     # C (exact)
    hbar = 1.054571817e-34                  # J*s
    light_speed = 299792458.0               # m/s (exact)
    proton_mass = 1.67262192369e-27         # kg

    @property
    def bohr_radius_a0(self) -> float:
        """Bohr radius in metres, derived from alpha, m, c."""
        return self.hbar / (
            self.fine_structure_alpha * self.electron_mass * self.light_speed
        )

    @property
    def hartree(self) -> float:
        """Hartree energy in joules, derived as alpha^2 m c^2."""
        return (
            self.fine_structure_alpha ** 2
            * self.electron_mass
            * self.light_speed ** 2
        )

    @property
    def hartree_ev(self) -> float:
        """Hartree energy in electron volts."""
        return self.hartree / self.elementary_charge

    @property
    def vector_potential_au(self) -> float:
        """Atomic unit of vector potential, hbar/(e*a0), in V*s/m."""
        return self.hbar / (self.elementary_charge * self.bohr_radius_a0)


CONSTANTS = PhysicalConstants()

# Hydrogen ground-state binding energy in internal hartree: 0.5 with or
# without the reduced mass, whose factor UnitSystem applies at I/O.
BINDING_ENERGY_AU = 0.5


@dataclass(frozen=True)
class UnitSystem:
    """I/O conversion layer, optionally with the reduced-mass substitution.

    With ``reduced_mass=True`` the electron mass is replaced by
    m*m_p/(m+m_p) throughout.  Internally this is realised by working in
    mass-scaled atomic units (energy unit mu*E_h, length unit a0/mu), so
    every internal formula is unchanged and only the I/O conversion factors
    carry the mass factor.
    """

    reduced_mass: bool = False

    @property
    def mass_factor(self) -> float:
        """Ratio of the working mass to the electron mass."""
        if not self.reduced_mass:
            return 1.0
        me = CONSTANTS.electron_mass
        mp = CONSTANTS.proton_mass
        return mp / (me + mp)

    def ev_to_internal(self, value_ev: float) -> float:
        """eV -> internal (mass-scaled) hartree."""
        return value_ev / (CONSTANTS.hartree_ev * self.mass_factor)

    def internal_to_ev(self, value_au: float) -> float:
        """Internal (mass-scaled) hartree -> eV."""
        return value_au * CONSTANTS.hartree_ev * self.mass_factor

    def vector_potential_to_internal(self, value_si: float) -> float:
        """V*s/m -> internal (mass-scaled) atomic units of A."""
        if value_si < 0:
            raise DomainError("vector-potential amplitude must be non-negative")
        return value_si / (CONSTANTS.vector_potential_au * self.mass_factor)

    def vector_potential_to_si(self, value_au: float) -> float:
        """Internal (mass-scaled) atomic units of A -> V*s/m."""
        return value_au * CONSTANTS.vector_potential_au * self.mass_factor

    def cross_section_to_pi_a0sq(self, value_internal: float) -> float:
        """Cross section in internal units of pi*a_mass^2 -> units of pi*a0^2."""
        return value_internal / self.mass_factor ** 2
