"""Command-line front end, and the one sweep of a configuration.

`sweep(config)` runs the sweep a validated `RunConfig` describes and
returns the records of `transitions.scan`; `run` writes them as a CSV with
a JSON metadata sidecar.  The library runs a sweep the same way, e.g.
`sweep(parse_config(preset="fig3", overrides={"n0": 8}))`, with overrides
keyed by RunConfig field.  The package does not import this module, so
`import laserhydrogen` loads no argparse.

Subcommands
    spectrum    photon-energy sweep at fixed amplitude
    intensity   amplitude sweep at fixed photon energy
    ionization  amplitude sweep of photoionization observables
    point       single (A, omega) transition table

Inputs are in I/O units (energies in eV, amplitudes in V*s/m); presets
fig1 (spectrum), fig2 (intensity) and fig3 (ionization) encode the
published figure parameters, and flags override them.  Each subcommand
takes the flags of the keys its mode reads (MODE_KEYS) and the presets of
its mode, nothing else, so argparse rejects any other flag or preset.
Flags are spelled in full: argparse takes no prefix of a flag for it.
Exit codes: 0 success, 1 at least one scan point failed, 2 configuration
error, 3 I/O error.
"""

import argparse
import contextlib
import csv
import dataclasses
import errno
import json
import math
import os
import sys
import time
from functools import partial

from . import __version__
from .basis import N0_CAP, QuantumNumbers, enumerate_basis
from .eigensolver import DEGENERACY_GAP
from .errors import ConfigurationError
from .hamiltonian import LaserField
from .ionization import IonizationScanPoint
from .transitions import ScanPoint, scan
from .units import UnitSystem

SPECTRUM_HEADER = (
    "axis_value,initial_n,initial_l,initial_mu,"
    "final_n,final_l,final_mu,W,degenerate_flag"
)
IONIZATION_HEADER = (
    "A_vspm,omega_eV,dressed_index,overlap,E_i_hartree,"
    "mu_branch,E_f0_eV,eta,sigma_pia02"
)

PRESETS = {
    "fig1": {
        "mode": "spectrum",
        "n0": 18,
        "amplitude_vspm": 5e-6,
        "omega_ev_start": 0.1,
        "omega_ev_stop": 1.0,
        "count": 10,
    },
    "fig2": {
        "mode": "intensity",
        "n0": 18,
        "omega_ev": 0.296,
        "a_vspm_start": 0.0,
        "a_vspm_stop": 5e-6,
        "count": 11,
    },
    "fig3": {
        "mode": "ionization",
        "n0": 10,
        "omega_ev": 2.37,
        "a_vspm_start": 5e-7,
        "a_vspm_stop": 5e-6,
        "count": 10,
    },
}


# Keys every mode reads, and the keys each mode reads besides them; a mode
# requires each of its keys that has no default.
_COMMON_KEYS = ("mode", "n0", "initial_n", "initial_l", "initial_mu", "reduced_mass",
                "output_path")
MODE_KEYS = {
    "spectrum": ("amplitude_vspm", "omega_ev_start", "omega_ev_stop", "count", "w_min"),
    "intensity": ("omega_ev", "a_vspm_start", "a_vspm_stop", "count", "w_min"),
    "ionization": ("omega_ev", "a_vspm_start", "a_vspm_stop", "count", "drop_a2"),
    "point": ("amplitude_vspm", "omega_ev", "w_min"),
}


# The types of value each field type of RunConfig takes, and their name:
# those JSON writes as they are, since the metadata holds the config.
_FIELD_TYPES = {int: (int, "an int"), float: ((int, float), "an int or a float"),
                bool: (bool, "a bool"), str: (str, "a str")}


@dataclasses.dataclass
class RunConfig:
    mode: str
    n0: int = 6
    initial_n: int = 1
    initial_l: int = 0
    initial_mu: int = 0
    amplitude_vspm: float = None   # fixed A (spectrum / point)
    omega_ev: float = None         # fixed omega (intensity / ionization / point)
    omega_ev_start: float = None
    omega_ev_stop: float = None
    a_vspm_start: float = None
    a_vspm_stop: float = None
    count: int = 1
    reduced_mass: bool = False
    drop_a2: bool = False
    output_path: str = "scan.csv"
    w_min: float = 1e-12

    @property
    def initial_state(self) -> QuantumNumbers:
        return QuantumNumbers(self.initial_n, self.initial_l, self.initial_mu)

    def validate(self):
        """Check the type and range of each field, the keys the mode
        requires, and that no key the mode does not read is set."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue  # not set: a key the mode requires is checked below
            types, name = _FIELD_TYPES[f.type]
            # a bool is an int to isinstance, but no int or float field takes one
            if (isinstance(value, bool) != (f.type is bool)
                    or not isinstance(value, types)):
                raise ConfigurationError(f"{f.name} must be {name}, got {value!r}")
            if f.type is float and not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
        if self.mode not in MODE_KEYS:
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        read = _COMMON_KEYS + MODE_KEYS[self.mode]
        for f in dataclasses.fields(self):
            if f.name not in read and getattr(self, f.name) != f.default:
                raise ConfigurationError(
                    f"mode {self.mode!r} does not read key {f.name!r}"
                )
        if not 1 <= self.n0 <= N0_CAP:
            raise ConfigurationError(f"n0 must be in [1, {N0_CAP}], got {self.n0}")
        if self.count < 1:
            raise ConfigurationError("count must be >= 1")
        self.initial_state  # raises ConfigurationError if invalid
        if self.initial_n > self.n0:
            raise ConfigurationError(
                f"initial state (n, l, mu) = ({self.initial_n}, {self.initial_l}, "
                f"{self.initial_mu}) is outside the n0={self.n0} basis"
            )
        if not 0 <= self.w_min <= 1:
            raise ConfigurationError(f"w_min must be in [0, 1], got {self.w_min}")
        for key in MODE_KEYS[self.mode]:
            value = getattr(self, key)
            if value is None:
                raise ConfigurationError(f"mode {self.mode!r} requires key {key!r}")
            if key.startswith("omega") and value <= 0:
                raise ConfigurationError(f"{key} must be positive, got {value}")
            if key.startswith(("amplitude", "a_vspm")) and value < 0:
                raise ConfigurationError(f"{key} must be >= 0, got {value}")
        if self.mode == "spectrum" and self.omega_ev_start > self.omega_ev_stop:
            raise ConfigurationError("omega range must be increasing")
        if self.mode in ("intensity", "ionization"):
            if self.a_vspm_stop < self.a_vspm_start:
                raise ConfigurationError("A range must be increasing")
        if self.mode != "point" and self.count == 1:
            # one point is the start alone: a different stop would go unread
            axis = "omega_ev" if self.mode == "spectrum" else "a_vspm"
            start, stop = getattr(self, f"{axis}_start"), getattr(self, f"{axis}_stop")
            if stop != start:
                raise ConfigurationError(
                    f"count 1 computes {axis}_start alone: {axis}_stop must "
                    f"equal it, got {axis}_start {start} and {axis}_stop {stop}"
                )


def parse_config(overrides=None, preset=None) -> RunConfig:
    """Merge preset < flag overrides into a RunConfig."""
    values = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
            )
        values.update(PRESETS[preset])
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    if "mode" not in values:
        raise ConfigurationError("missing required key 'mode'")
    try:
        config = RunConfig(**values)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc
    config.validate()
    return config


def _axis_grid(start, stop, count):
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def sweep(config: RunConfig) -> list:
    """`scan`'s records of a validated RunConfig, one per axis value: a
    `ScanPoint`, an `IonizationScanPoint` in mode ionization, or a
    `PointFailure`.  Axis values are in I/O units, eV or V*s/m.

    Every field is built before the first point is solved: raises
    ConfigurationError if one is not a valid LaserField.
    """
    units = UnitSystem(reduced_mass=config.reduced_mass)
    if config.mode in ("intensity", "ionization"):
        axis = _axis_grid(config.a_vspm_start, config.a_vspm_stop, config.count)
        omega_au = units.ev_to_internal(config.omega_ev)
        lasers = [LaserField(units.vector_potential_to_internal(a), omega_au)
                  for a in axis]
    else:
        # point: one axis value, its photon energy
        axis = (_axis_grid(config.omega_ev_start, config.omega_ev_stop, config.count)
                if config.mode == "spectrum" else [config.omega_ev])
        amp_au = units.vector_potential_to_internal(config.amplitude_vspm)
        lasers = [LaserField(amp_au, units.ev_to_internal(w)) for w in axis]
    basis, initial = enumerate_basis(config.n0), config.initial_state
    if config.mode == "ionization":
        observe = partial(IonizationScanPoint.observe, basis, initial,
                          include_a2=not config.drop_a2)
    else:
        observe = partial(ScanPoint.observe, basis, initial)
    return scan(axis, lasers, observe)


def run(config: RunConfig) -> int:
    """Execute a validated RunConfig: `sweep` it and write its CSV and
    metadata.  Returns the process exit code.

    Raises ConfigurationError if a field point is not a valid LaserField.
    """
    t_start = time.perf_counter()
    points = sweep(config)
    units = UnitSystem(reduced_mass=config.reduced_mass)
    ionization = config.mode == "ionization"
    csv_rows = [(IONIZATION_HEADER if ionization else SPECTRUM_HEADER).split(",")]
    for p in points:
        csv_rows.extend(
            _ionization_rows(p, config, units) if ionization
            else _spectrum_rows(p, config)
        )
    computed = [p for p in points if not p.failed]
    read = _COMMON_KEYS + MODE_KEYS[config.mode]
    metadata = {
        "package_version": __version__,
        "config": {k: v for k, v in dataclasses.asdict(config).items() if k in read},
        "constants": "CODATA 2018",
        "units": {
            "axis": "V*s/m" if config.mode in ("intensity", "ionization") else "eV",
            "hartree_eV": units.internal_to_ev(1.0),
            "vector_potential_au_vspm": units.vector_potential_to_si(1.0),
        },
        "failed_points": [dataclasses.asdict(p) for p in points if p.failed],
        "wall_time_s": time.perf_counter() - t_start,
    }
    if ionization:
        # Points whose tracked state keeps less than half of the initial
        # bare state: which dressed state the records follow is ambiguous.
        metadata["ambiguous_axis_values"] = [
            p.axis_value for p in computed if p.ambiguous
        ]
        # Points at which every branch is closed: they write no CSV row.
        metadata["closed_axis_values"] = [
            p.axis_value for p in computed if not p.records
        ]
    else:
        metadata["tolerances"] = {
            "w_min": config.w_min,
            "degeneracy_gap": DEGENERACY_GAP,
        }
        metadata["near_degenerate_axis_values"] = [
            p.axis_value for p in computed if p.near_degenerate
        ]
        # Trust in each computed point: |sum_b W(initial, b) - 1| before the
        # w_min cut; the smallest level spacing in the initial state's class,
        # near which W carries rounding of about eps*|H|/gap; and the W that
        # reaches the outermost shell n = n0, a proxy for truncation error.
        metadata["w_normalization_error"] = [
            {"axis_value": p.axis_value, "error": p.normalization_error}
            for p in computed
        ]
        metadata["min_eigen_gap"] = [
            {"axis_value": p.axis_value, "gap": p.min_eigen_gap} for p in computed
        ]
        metadata["outer_shell_leakage"] = [
            {"axis_value": p.axis_value, "leakage": p.outer_shell_leakage}
            for p in computed
        ]
    try:
        _write_files([
            (config.output_path, "",
             lambda fh: csv.writer(fh).writerows(csv_rows)),
            (config.output_path + ".meta.json", None,
             lambda fh: json.dump(metadata, fh, indent=2)),
        ])
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    return 1 if metadata["failed_points"] else 0


def _spectrum_rows(point, config):
    """CSV rows of one ScanPoint: W out of the initial state, w_min cut."""
    ini = config.initial_state
    if point.failed:
        return [[point.axis_value, ini.n, ini.l, ini.mu, -1, -1, 0, "nan", "failed"]]
    return [
        [point.axis_value, ini.n, ini.l, ini.mu, state.n, state.l, state.mu,
         repr(float(w)), int(point.near_degenerate)]
        for state, w in zip(point.table.basis.states, point.table.probabilities)
        if not w < config.w_min  # a NaN W is written
    ]


def _ionization_rows(point, config, units):
    """CSV rows of one IonizationScanPoint, one per open mu branch."""
    if point.failed:
        return [[point.axis_value, config.omega_ev, -1, "nan", "nan", 0,
                 "nan", "nan", "failed"]]
    return [
        [point.axis_value, config.omega_ev, point.dressed_index,
         repr(float(point.overlap)),
         repr(float(rec.E_i * units.mass_factor)), rec.mu_branch,
         repr(float(units.internal_to_ev(rec.E_f0))),
         repr(float(rec.eta)),
         repr(float(units.cross_section_to_pi_a0sq(rec.sigma)))]
        for rec in point.records
    ]


def _write_files(outputs):
    """Write each (path, newline, write) output all-or-nothing.

    Every output is first written by write(fh) to a temporary file beside
    its path; only when all of them are complete, and nothing but a regular
    file sits at any path (os.replace would turn a FIFO or a device node
    into a file, and refuse a directory), are they moved into place, so an
    error leaves the existing files untouched and no partial or temporary
    file behind.
    """
    temps = []
    try:
        for path, newline, write in outputs:
            temps.append(f"{path}.{os.getpid()}.tmp")
            with open(temps[-1], "w", newline=newline) as fh:
                write(fh)
        for path, _, _ in outputs:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            if os.path.exists(path) and not os.path.isfile(path):
                raise FileExistsError(errno.EEXIST, "not a regular file", path)
        for tmp, (path, _, _) in zip(temps, outputs):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laserhydrogen",
        allow_abbrev=False,
        description="Dressed-state transitions and photoionization of "
        "hydrogen in a circularly polarized laser",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    kinds = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    for mode, keys in MODE_KEYS.items():
        p = sub.add_parser(mode, allow_abbrev=False)
        presets = sorted(name for name, v in PRESETS.items() if v["mode"] == mode)
        if presets:
            p.add_argument("--preset", choices=presets)
        p.add_argument("--initial", nargs=3, type=int, metavar=("N", "L", "MU"))
        for key in _COMMON_KEYS + keys:
            if key == "mode" or key.startswith("initial_"):
                continue  # the subcommand, and --initial sets all three
            flag = "--out" if key == "output_path" else "--" + key.replace("_", "-")
            if kinds[key] is bool:
                p.add_argument(flag, action="store_const", const=True, dest=key)
            else:
                p.add_argument(flag, type=kinds[key], dest=key)
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    preset, initial = args.pop("preset", None), args.pop("initial")
    if initial is not None:
        args["initial_n"], args["initial_l"], args["initial_mu"] = initial
    try:
        return run(parse_config(overrides=args, preset=preset))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
