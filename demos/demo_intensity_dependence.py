"""Intensity dependence of bound-bound transitions at fixed photon energy.

Holds the photon energy at 0.296 eV and turns the field up from zero to
A = 5e-6 V*s/m.  Prints the ground-state survival probability, the summed
transition probability, and the fractional 1s content of the tracked
dressed state.  In the weak field every transition probability grows like
A^2 (the perturbative law); at strong fields the growth saturates and the
initial state is spread over many dressed states.

Run:  python3 demos/demo_intensity_dependence.py
"""

import numpy as np

from laserhydrogen import QuantumNumbers, UnitSystem, intensity_scan

N0 = 12
PHOTON_EV = 0.296
AMPLITUDES_SI = np.linspace(0.0, 5e-6, 11)

units = UnitSystem()
omega_au = units.ev_to_internal(PHOTON_EV)
amps_au = [units.vector_potential_to_internal(a) for a in AMPLITUDES_SI]
ground = QuantumNumbers(1, 0, 0)

print(f"photon energy {PHOTON_EV} eV, basis n0 = {N0}")
print(f"{'A [V*s/m]':>12} {'A [a.u.]':>10} {'survival':>10} "
      f"{'sum of transitions':>20}")

points = intensity_scan(
    omega_au, amps_au, ground, n0=N0, axis_values=list(AMPLITUDES_SI)
)

prev = None
for point, amp_au in zip(points, amps_au):
    if point.failed:
        print(f"{point.axis_value:12.2e}  FAILED: {point.error}")
        continue
    survival = point.table.probability(ground)
    total_out = 1.0 - survival
    note = ""
    if prev is not None and prev > 0 and total_out > 0:
        # local log-log slope against amplitude
        a0, a1 = prev_amp, amp_au
        slope = np.log(total_out / prev) / np.log(a1 / a0)
        note = f"   local slope d(lnW)/d(lnA) = {slope:5.2f}"
    print(f"{point.axis_value:12.2e} {amp_au:10.4f} {survival:10.6f} "
          f"{total_out:20.6e}{note}")
    prev, prev_amp = total_out, amp_au

print()
print("The slope starts at 2 (perturbative, W proportional to intensity)")
print("and drops as the strong field saturates the transition.")
