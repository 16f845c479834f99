"""Intensity dependence of bound-bound transitions at fixed photon energy.

Holds the photon energy at 0.296 eV and turns the field up from zero to
A = 5e-6 V*s/m.  Prints the ground-state survival probability, the summed
transition probability, and the fractional 1s content of the tracked
dressed state.  In the weak field every transition probability grows like
A^2 (the perturbative law); at strong fields the growth saturates and the
initial state is spread over many dressed states.

The sweep is the command line's fig2 preset on a smaller basis, run from
Python; `laserhydrogen intensity --preset fig2 --n0 12` writes it as a CSV.

Run:  python3 demos/demo_intensity_dependence.py
"""

import numpy as np

from laserhydrogen import UnitSystem
from laserhydrogen.cli import parse_config, sweep

config = parse_config(preset="fig2", overrides={"n0": 12})
units = UnitSystem()
ground = config.initial_state

print(f"photon energy {config.omega_ev} eV, basis n0 = {config.n0}")
print(f"{'A [V*s/m]':>12} {'A [a.u.]':>10} {'survival':>10} "
      f"{'sum of transitions':>20}")

points = sweep(config)

prev = None
for point in points:
    if point.failed:
        print(f"{point.axis_value:12.2e}  FAILED: {point.error}")
        continue
    amp_au = units.vector_potential_to_internal(point.axis_value)
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
