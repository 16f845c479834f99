"""Dressed-state transition spectrum of hydrogen in a strong circular laser.

Sweeps the photon energy at a fixed, genuinely strong vector-potential
amplitude (A = 5e-6 V*s/m, about 0.4 atomic units) and prints where the
ground state goes: the survival probability and the largest time-averaged
transition probabilities W(1s -> n l mu) at each photon energy.

Away from any Bohr resonance the ground state would survive untouched in
a weak field; at this amplitude the dressed states are strongly mixed and
transitions occur over a broad band of photon energies.

The sweep is the command line's fig1 preset on a smaller basis, run from
Python; `laserhydrogen spectrum --preset fig1 --n0 12` writes it as a CSV.

Run:  python3 demos/demo_dressed_spectrum.py
"""

import numpy as np

from laserhydrogen import QuantumNumbers, UnitSystem
from laserhydrogen.cli import parse_config, sweep

# basis cutoff n0 = 12; the preset's n0 = 18 reproduces the full run
config = parse_config(preset="fig1", overrides={"n0": 12})
amplitude_au = UnitSystem().vector_potential_to_internal(config.amplitude_vspm)

print(f"amplitude A = {config.amplitude_vspm} V*s/m = {amplitude_au:.4f} a.u., "
      f"basis n0 = {config.n0}")
print()

points = sweep(config)

for point in points:
    if point.failed:
        print(f"hw = {point.axis_value:5.2f} eV  FAILED: {point.error}")
        continue
    table = point.table
    survival = table.probability(QuantumNumbers(1, 0, 0))
    order = np.argsort(table.probabilities)[::-1]
    tops = []
    for idx in order[:4]:
        state = table.basis.states[idx]
        if state == QuantumNumbers(1, 0, 0):
            continue
        w = table.probabilities[idx]
        tops.append(f"({state.n},{state.l},{state.mu:+d}): {w:.4f}")
    flag = "  [near-degenerate]" if point.near_degenerate else ""
    print(f"hw = {point.axis_value:5.2f} eV  survival W = {survival:.4f}   "
          f"top transitions " + "  ".join(tops[:3]) + flag)

print()
print("The survival probability dips where dressed levels anticross; the")
print("transition strength is spread over many final states rather than")
print("concentrated at the weak-field Bohr resonances.")
