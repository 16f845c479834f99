"""Command-line front end: scans to CSV with a JSON metadata sidecar.

Subcommands
    spectrum    photon-energy sweep at fixed amplitude
    intensity   amplitude sweep at fixed photon energy
    ionization  amplitude sweep of photoionization observables
    point       single (A, omega) transition table

Inputs are in I/O units (energies in eV, amplitudes in V*s/m); presets
fig1, fig2 and fig3 encode the published figure parameters.  A key that
the chosen mode does not read (from a preset, a config file or a flag) is
a configuration error.  Exit codes: 0 success, 1 at least one scan point
failed, 2 configuration error, 3 I/O error.
"""

import argparse
import configparser
import contextlib
import csv
import dataclasses
import errno
import json
import math
import os
import sys
import time

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
                "drop_a2", "output_path")
MODE_KEYS = {
    "spectrum": ("amplitude_vspm", "omega_ev_start", "omega_ev_stop", "count", "w_min"),
    "intensity": ("omega_ev", "a_vspm_start", "a_vspm_stop", "count", "w_min"),
    "ionization": ("omega_ev", "a_vspm_start", "a_vspm_stop", "count"),
    "point": ("amplitude_vspm", "omega_ev", "w_min"),
}


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

    def validate(self, given):
        """Check the config; the mode must read every key in given."""
        if self.mode not in MODE_KEYS:
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        unread = sorted(set(given) - set(_COMMON_KEYS) - set(MODE_KEYS[self.mode]))
        if unread:
            raise ConfigurationError(f"mode {self.mode!r} does not read key(s) "
                                     + ", ".join(map(repr, unread)))
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
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type is float and value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
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


_CONFIG_KEYS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def parse_config(path=None, overrides=None, preset=None) -> RunConfig:
    """Merge preset < config file < flag overrides into a RunConfig."""
    values = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
            )
        values.update(PRESETS[preset])
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigurationError(f"config file {path!r} not readable")
        for section in parser.sections():
            for key, raw in parser.items(section):
                if key not in _CONFIG_KEYS:
                    raise ConfigurationError(f"unknown config key {key!r}")
                values[key] = _coerce(key, raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    if "mode" not in values:
        raise ConfigurationError("missing required key 'mode'")
    try:
        config = RunConfig(**values)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc
    config.validate(given=values)  # the keys set by preset, file or flag
    return config


def _coerce(key, raw):
    """Parse a config-file value as the type of its RunConfig field."""
    kind = _CONFIG_KEYS[key]
    if kind is str:
        return raw
    if kind is bool:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigurationError(f"key {key!r}: expected boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigurationError(f"key {key!r}: cannot parse {raw!r}") from None


def _axis_grid(start, stop, count):
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _sweep(config, units):
    """Axis values in I/O units and the LaserField of each scan point."""
    if config.mode in ("intensity", "ionization"):
        axis = _axis_grid(config.a_vspm_start, config.a_vspm_stop, config.count)
        omega_au = units.ev_to_internal(config.omega_ev)
        return axis, [
            LaserField(units.vector_potential_to_internal(a), omega_au) for a in axis
        ]
    if config.mode == "spectrum":
        axis = _axis_grid(config.omega_ev_start, config.omega_ev_stop, config.count)
    else:  # point: the axis value is its photon energy
        axis = [config.omega_ev]
    amp_au = units.vector_potential_to_internal(config.amplitude_vspm)
    return axis, [LaserField(amp_au, units.ev_to_internal(w)) for w in axis]


def run(config: RunConfig) -> int:
    """Execute a validated RunConfig; returns the process exit code.

    Raises ConfigurationError if a field point is not a valid LaserField.
    """
    t_start = time.time()
    units = UnitSystem(reduced_mass=config.reduced_mass)
    axis, lasers = _sweep(config, units)
    ionization = config.mode == "ionization"
    points = list(scan(
        enumerate_basis(config.n0), config.initial_state, axis, lasers,
        IonizationScanPoint if ionization else ScanPoint,
        include_a2=not config.drop_a2,
    ))
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
        "failed_points": [
            {"axis_value": p.axis_value, **dataclasses.asdict(p.failure)}
            for p in points if p.failed
        ],
        "wall_time_s": time.time() - t_start,
    }
    if ionization:
        # Points whose tracked state keeps less than half of the initial
        # bare state: which dressed state the records follow is ambiguous.
        metadata["ambiguous_axis_values"] = [
            p.axis_value for p in points if p.ambiguous
        ]
        # Points whose tracked state the folded solve could not certify, so
        # the solve of the whole class gave it.  Its small components, and so
        # sigma of strongly suppressed branches, carry that solve's rounding.
        metadata["full_solve_axis_values"] = [
            p.axis_value for p in computed if p.full_solve
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
        description="Dressed-state transitions and photoionization of "
        "hydrogen in a circularly polarized laser",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODE_KEYS:
        p = sub.add_parser(mode)
        p.add_argument("--config", dest="config_path")
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--n0", type=int)
        p.add_argument("--out", dest="output_path")
        p.add_argument("--initial", nargs=3, type=int, metavar=("N", "L", "MU"))
        p.add_argument("--amplitude-vspm", type=float, dest="amplitude_vspm")
        p.add_argument("--omega-ev", type=float, dest="omega_ev")
        p.add_argument("--omega-ev-start", type=float, dest="omega_ev_start")
        p.add_argument("--omega-ev-stop", type=float, dest="omega_ev_stop")
        p.add_argument("--a-vspm-start", type=float, dest="a_vspm_start")
        p.add_argument("--a-vspm-stop", type=float, dest="a_vspm_stop")
        p.add_argument("--count", type=int)
        p.add_argument("--w-min", type=float, dest="w_min")
        p.add_argument("--reduced-mass", action="store_const", const=True,
                       dest="reduced_mass")
        p.add_argument("--drop-a2", action="store_const", const=True,
                       dest="drop_a2")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key)
        for key in _CONFIG_KEYS
        if hasattr(args, key) and getattr(args, key) is not None
    }
    overrides["mode"] = args.mode
    if args.initial is not None:
        overrides["initial_n"], overrides["initial_l"], overrides["initial_mu"] = (
            args.initial
        )
    try:
        config = parse_config(
            path=args.config_path, overrides=overrides, preset=args.preset
        )
        return run(config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
