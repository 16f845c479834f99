"""Benchmark workloads and the seeded CLI inputs they produce.

Every workload is a sequence of ``laserhydrogen.cli.main`` calls with
explicit flags; the program sees only the values drawn here.  A run is
split into a *cold* pass (the first point alone, in a fresh interpreter)
and a *warm* pass (the whole sweep, in the same interpreter).
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str      # "spectrum", "ionization" or "ladder"
    n0: int        # basis cut-off; for the ladder, its last rung
    count: int = 0  # points in the warm sweep (the ladder has one per rung)
    cold_n0: int = 0  # ladder only: the rung computed alone in the cold pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spectrum-n18",
            "Fig. 1 omega sweep on one n0=18 basis (dim 2109): warm radial "
            "cache, eigensolver-bound; targets parity blocks and one-time coupling",
            "spectrum", n0=18, count=4,
        ),
        Workload(
            "ionization-n10",
            "Fig. 3 A sweep at n0=10: each point has a new continuum k so the "
            "bound-free cache misses; hyp2f1-bound, eigensolver minor",
            "ionization", n0=10, count=40,
        ),
        Workload(
            "ladder-n16",
            "n0 convergence ladder, one point per rung 9..16: every rung is a "
            "new basis with cold exact radial integrals, nothing reused",
            "ladder", n0=16, cold_n0=8,
        ),
    )
}

# Fixed physical parameters (I/O units) and the ranges the seed draws from.
SPECTRUM_A_VSPM = "5e-06"
SPECTRUM_OMEGA_START = (0.1, 0.3)
SPECTRUM_OMEGA_STOP = (0.8, 1.0)
IONIZATION_OMEGA_EV = "2.37"
IONIZATION_A_START = (5e-7, 1e-6)
IONIZATION_A_STOP = (4.5e-6, 5e-6)
LADDER_OMEGA = (0.29, 0.30)
LADDER_A = (4.5e-6, 5e-6)


@dataclass(frozen=True)
class Call:
    """One ``cli.main`` invocation; ``--out`` is appended by the runner."""

    argv: tuple
    kind: str      # CSV layout: "spectrum" (W table) or "ionization"
    axis: tuple    # axis values the CSV must contain, in order
    omega_ev: float = None  # ionization: photon energy of every row


def _draw(rng, bounds):
    """Seeded value rounded to 6 significant digits, as flag text."""
    return f"{rng.uniform(*bounds):.6g}"


def _grid(start, stop, count):
    start, stop = float(start), float(stop)
    if count == 1:
        return (start,)
    step = (stop - start) / (count - 1)
    return tuple(start + i * step for i in range(count))


def make_inputs(workload, seed):
    """``{"cold": [Call], "warm": [Call]}`` for ``workload`` at ``seed``."""
    rng = random.Random(f"{workload.name}:{seed}")
    n0 = str(workload.n0)
    if workload.mode == "spectrum":
        lo, hi = _draw(rng, SPECTRUM_OMEGA_START), _draw(rng, SPECTRUM_OMEGA_STOP)
        base = ("spectrum", "--n0", n0, "--amplitude-vspm", SPECTRUM_A_VSPM)

        def sweep(stop, count):
            argv = base + ("--omega-ev-start", lo, "--omega-ev-stop", stop,
                           "--count", str(count))
            return Call(argv, "spectrum", _grid(lo, stop, count))

        return {"cold": [sweep(lo, 1)], "warm": [sweep(hi, workload.count)]}
    if workload.mode == "ionization":
        lo, hi = _draw(rng, IONIZATION_A_START), _draw(rng, IONIZATION_A_STOP)
        base = ("ionization", "--n0", n0, "--omega-ev", IONIZATION_OMEGA_EV)

        def sweep(stop, count):
            argv = base + ("--a-vspm-start", lo, "--a-vspm-stop", stop,
                           "--count", str(count))
            return Call(argv, "ionization", _grid(lo, stop, count),
                        float(IONIZATION_OMEGA_EV))

        return {"cold": [sweep(lo, 1)], "warm": [sweep(hi, workload.count)]}
    if workload.mode == "ladder":
        omega, amp = _draw(rng, LADDER_OMEGA), _draw(rng, LADDER_A)

        def rung(n):
            argv = ("point", "--n0", str(n), "--amplitude-vspm", amp,
                    "--omega-ev", omega)
            return Call(argv, "spectrum", (float(omega),))

        return {
            "cold": [rung(workload.cold_n0)],
            "warm": [rung(n) for n in range(workload.cold_n0 + 1, workload.n0 + 1)],
        }
    raise ValueError(f"unknown workload mode {workload.mode!r}")


def probe_field(workload, seed):
    """(n0, A in V*s/m, omega in eV) of the workload's largest basis at its
    first warm field."""
    first = make_inputs(workload, seed)["warm"][0]
    flags = dict(zip(first.argv[1::2], first.argv[2::2]))
    amp = float(flags.get("--amplitude-vspm", first.axis[0]))
    omega = float(flags.get("--omega-ev", first.axis[0]))
    return workload.n0, amp, omega
