"""Photoionization with a non-integer effective photon number.

At hbar*omega = 2.37 eV it takes at least six photons to ionize hydrogen
from the ground state.  Sweeping the amplitude from 5e-7 to 5e-6 V*s/m this
script prints, for the dressed state tracked from the 1s level:

  * its pseudo-energy E_i (pushed up by the field),
  * the photoelectron kinetic energy E_f0 of the lowest open branch,
  * the effective photon number eta = (E_i + b)/hbar*omega - mu, which
    drifts away from the integer 6 as the field grows, and
  * the total ionization cross section, which rises much faster than
    linearly with intensity.

Successive branches stay spaced by exactly one photon energy; what becomes
non-integer is the energy bookkeeping of the dressed initial state.

The sweep is the command line's fig3 preset, run from Python;
`laserhydrogen ionization --preset fig3` writes it as a CSV.

Run:  python3 demos/demo_photoionization.py
"""

from laserhydrogen import UnitSystem
from laserhydrogen.cli import parse_config, sweep

config = parse_config(preset="fig3")
units = UnitSystem()

print(f"photon energy {config.omega_ev} eV, basis n0 = {config.n0}")
print(f"{'A [V*s/m]':>11} {'E_i [ha]':>10} {'overlap':>8} "
      f"{'E_f0 [eV]':>10} {'eta':>8} {'sigma_tot [pi a0^2]':>20}")

points = sweep(config)

for p in points:
    if p.failed:
        print(f"{p.axis_value:11.2e}  FAILED: {p.error}")
        continue
    threshold = p.records[-1]  # slowest photoelectrons: the threshold branch
    sigma_tot = sum(r.sigma for r in p.records)
    print(f"{p.axis_value:11.2e} {threshold.E_i:10.5f} {p.overlap:8.3f} "
          f"{units.internal_to_ev(threshold.E_f0):10.4f} {threshold.eta:8.4f} "
          f"{sigma_tot:20.4e}")

print()
print("eta starts essentially at the integer 6 and grows past 6.4: the")
print("photoelectron carries away a non-integer number of light quanta.")
print("Branch spacing remains exactly hbar*omega throughout.")
