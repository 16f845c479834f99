import csv
import inspect
import json
import math
import os
import re
import stat
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import laserhydrogen.cli as cli
import laserhydrogen.ionization as ionization
import laserhydrogen.transitions as transitions
from laserhydrogen.cli import IONIZATION_HEADER, SPECTRUM_HEADER, main, parse_config
from laserhydrogen.basis import QuantumNumbers, enumerate_basis
from laserhydrogen.errors import ConfigurationError
from laserhydrogen.hamiltonian import LaserField
from laserhydrogen.ionization import IonizationScanPoint
from laserhydrogen.transitions import ScanPoint, scan
from laserhydrogen.units import UnitSystem
from oracles import WITHOUT_ORACLES


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# --- configuration layer ---------------------------------------------------

def test_parse_config_requires_mode():
    with pytest.raises(ConfigurationError, match="mode"):
        parse_config(overrides={})


def test_parse_config_unknown_preset():
    with pytest.raises(ConfigurationError, match="preset"):
        parse_config(preset="fig99", overrides={"mode": "spectrum"})


def test_parse_config_preset_overridable():
    config = parse_config(
        preset="fig3", overrides={"mode": "ionization", "n0": 4, "count": 2}
    )
    assert config.mode == "ionization"
    assert config.omega_ev == 2.37
    assert config.a_vspm_start == 5e-7
    assert config.a_vspm_stop == 5e-6
    assert config.n0 == 4 and config.count == 2


def test_parse_config_mode_specific_requirements():
    with pytest.raises(ConfigurationError, match="amplitude_vspm"):
        parse_config(overrides={"mode": "point", "omega_ev": 0.5})
    with pytest.raises(ConfigurationError, match="omega range"):
        parse_config(
            overrides={
                "mode": "spectrum", "amplitude_vspm": 1e-6,
                "omega_ev_start": 0.5, "omega_ev_stop": 0.1,
            }
        )


def test_parse_config_invalid_initial_state():
    with pytest.raises(ConfigurationError):
        parse_config(
            overrides={
                "mode": "point", "amplitude_vspm": 1e-6, "omega_ev": 0.5,
                "initial_n": 1, "initial_l": 1, "initial_mu": 0,
            }
        )


# Values of the wrong type for a field, each refused by parse_config with
# the key named, before a sweep could fail on it or run it: a bool is an int
# to Python, but n0 = True is no n0 = 1 basis.
_WRONG_TYPES = [
    ({"n0": 2.5, "count": 2}, "n0"),
    ({"count": 2.5}, "count"),
    ({"count": "3"}, "count"),
    ({"n0": True}, "n0"),
    ({"a_vspm_stop": True}, "a_vspm_stop"),
    ({"drop_a2": 1}, "drop_a2"),
    ({"output_path": 3}, "output_path"),
]


@pytest.mark.parametrize("overrides, key", _WRONG_TYPES,
                         ids=[f"{key}={o[key]!r}" for o, key in _WRONG_TYPES])
def test_parse_config_refuses_a_value_of_the_wrong_type(overrides, key):
    with pytest.raises(ConfigurationError, match=f"^{key} must be an? "):
        parse_config(preset="fig3", overrides=overrides)


# Keys the mode does not read, each an exit 2 on the command line, where the
# subcommand has no such flag: parse_config refuses them too, naming the key
# and the mode, where it would otherwise run without them.
_UNREAD = [
    (None, {"mode": "point", "n0": 3, "amplitude_vspm": 5e-6, "omega_ev": 0.5,
            "count": 7}, "point", "count"),
    ("fig1", {"drop_a2": True}, "spectrum", "drop_a2"),
    ("fig3", {"mode": "spectrum", "amplitude_vspm": 5e-6, "omega_ev_start": 0.2,
              "omega_ev_stop": 0.6}, "spectrum", "omega_ev"),
]


@pytest.mark.parametrize("preset, overrides, mode, key", _UNREAD,
                         ids=["point-count", "fig1-drop-a2", "fig3-as-spectrum"])
def test_parse_config_refuses_a_key_the_mode_does_not_read(preset, overrides, mode,
                                                           key):
    with pytest.raises(ConfigurationError,
                       match=f"^mode {mode!r} does not read key {key!r}$"):
        parse_config(preset=preset, overrides=overrides)


@pytest.mark.parametrize("n0", [2.0, True], ids=repr)
def test_enumerate_basis_takes_an_integer_n0(n0):
    with pytest.raises(ConfigurationError, match="n0 must be an integer"):
        enumerate_basis(n0)


# --- end-to-end runs --------------------------------------------------------

_POINT = ["point", "--n0", "3", "--amplitude-vspm", "5e-6", "--omega-ev", "0.5"]
_SPECTRUM = ["spectrum", "--n0", "3", "--amplitude-vspm", "5e-6",
             "--omega-ev-start", "0.2", "--omega-ev-stop", "0.6", "--count", "2"]
_INTENSITY = ["intensity", "--n0", "3", "--omega-ev", "0.5",
              "--a-vspm-start", "1e-6", "--a-vspm-stop", "5e-6", "--count", "2"]
_IONIZATION = ["ionization", "--n0", "6", "--omega-ev", "2.37",
               "--a-vspm-start", "2e-6", "--a-vspm-stop", "4e-6", "--count", "3"]


def test_point_run_csv_schema(tmp_path):
    out = tmp_path / "point.csv"
    rc = main(
        ["point", "--n0", "3", "--amplitude-vspm", "5e-6",
         "--omega-ev", "0.5", "--out", str(out)]
    )
    assert rc == 0
    header, rows = _read_csv(out)
    assert ",".join(header) == SPECTRUM_HEADER
    assert rows, "expected at least the survival row"
    total = 0.0
    for row in rows:
        assert row[1:4] == ["1", "0", "0"]
        w = float(row[7])
        assert w >= 1e-12  # w_min filter
        assert row[8] in ("0", "1")
        total += w
    assert total == pytest.approx(1.0, abs=1e-6)
    meta = json.loads((tmp_path / "point.csv.meta.json").read_text())
    assert meta["config"]["n0"] == 3
    assert meta["failed_points"] == []
    assert "wall_time_s" in meta and "tolerances" in meta


def test_spectrum_run_determinism(tmp_path):
    args = ["spectrum", "--n0", "3", "--amplitude-vspm", "5e-6",
            "--omega-ev-start", "0.2", "--omega-ev-stop", "0.6",
            "--count", "3"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    header, rows = _read_csv(out1)
    axis = sorted({float(r[0]) for r in rows})
    assert axis == pytest.approx([0.2, 0.4, 0.6])


def test_ionization_run_csv_schema(tmp_path):
    out = tmp_path / "ion.csv"
    rc = main(
        ["ionization", "--n0", "6", "--omega-ev", "2.37",
         "--a-vspm-start", "2e-6", "--a-vspm-stop", "4e-6",
         "--count", "2", "--out", str(out)]
    )
    assert rc == 0
    header, rows = _read_csv(out)
    assert ",".join(header) == IONIZATION_HEADER
    assert rows
    for row in rows:
        assert float(row[1]) == 2.37
        assert float(row[6]) > 0          # E_f0_eV of an open channel
        assert float(row[8]) >= 0         # sigma
        # eta*omega - b = E_f0 in internal units, checked through the I/O layer
        eta, e_f0_ev = float(row[7]), float(row[6])
        assert eta * 2.37 - 13.605693122994 == pytest.approx(e_f0_ev, rel=1e-6)


def test_ionization_at_n0_1_has_no_other_class(tmp_path):
    # the n0 = 1 basis is the 1s state alone: its class is the whole basis
    # and the odd class is empty, so no level lies below the tracked one
    out = tmp_path / "n1.csv"
    rc = main(["ionization", "--n0", "1", "--omega-ev", "20", "--a-vspm-start", "1e-7",
               "--a-vspm-stop", "1e-7", "--count", "1", "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    assert [(row[2], row[5]) for row in rows] == [("0", "-1")]
    # the 60-digit integral composed with the same double inputs gives sigma =
    # 0.0251422094306684146; on a branch whose partial waves add, sigma is
    # good to 1e-13 relative
    assert float(rows[0][8]) == pytest.approx(0.0251422094306684146, rel=1e-13, abs=0)


def test_intensity_run(tmp_path):
    out = tmp_path / "int.csv"
    rc = main(
        ["intensity", "--n0", "3", "--omega-ev", "0.5",
         "--a-vspm-start", "0", "--a-vspm-stop", "5e-6",
         "--count", "2", "--out", str(out)]
    )
    assert rc == 0
    header, rows = _read_csv(out)
    assert ",".join(header) == SPECTRUM_HEADER
    zero_field = [r for r in rows if float(r[0]) == 0.0]
    assert len(zero_field) == 1  # A = 0: only the survival row passes w_min
    assert float(zero_field[0][7]) == 1.0


def test_exit_code_2_on_bad_config(capsys):
    assert main(["spectrum", "--n0", "3"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_exit_code_3_on_unwritable_output():
    rc = main(
        ["point", "--n0", "2", "--amplitude-vspm", "1e-6",
         "--omega-ev", "0.5", "--out", "/nonexistent-dir/x.csv"]
    )
    assert rc == 3


def test_empty_output_path_is_a_configuration_error(tmp_path, monkeypatch, capsys):
    # An empty --out names no file: the run exits 2 before any point is
    # solved, and writes nothing, not even a temporary file, where it runs.
    monkeypatch.chdir(tmp_path)
    rc = main(
        ["point", "--n0", "2", "--amplitude-vspm", "1e-6",
         "--omega-ev", "0.5", "--out", ""]
    )
    assert rc == 2
    assert "output_path" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ConfigurationError, match="output_path"):
        parse_config(overrides={"mode": "point", "n0": 2, "amplitude_vspm": 1e-6,
                                "omega_ev": 0.5, "output_path": ""})


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_fifo_at_the_output_path_is_left_in_place(tmp_path, capsys):
    fifo = tmp_path / "out.csv"
    os.mkfifo(fifo)
    rc = main(
        ["point", "--n0", "2", "--amplitude-vspm", "1e-6",
         "--omega-ev", "0.5", "--out", str(fifo)]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "not a regular file" in err and str(fifo) in err
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_failed_metadata_write_leaves_earlier_output(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.csv"
    out.write_text("earlier,run\n")
    (tmp_path / "out.csv.meta.json").write_text("{}")

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"partial": ')
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.json, "dump", broken_dump)
    rc = main(
        ["point", "--n0", "2", "--amplitude-vspm", "1e-6",
         "--omega-ev", "0.5", "--out", str(out)]
    )
    assert rc == 3
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_text() == "earlier,run\n"
    assert (tmp_path / "out.csv.meta.json").read_text() == "{}"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "out.csv", "out.csv.meta.json"
    ]


def test_directory_at_the_metadata_path_leaves_earlier_csv(tmp_path, capsys):
    # the CSV would be replaced first; a directory where the metadata goes
    # must fail the write before anything is moved into place
    out = tmp_path / "out.csv"
    out.write_text("earlier,run\n")
    meta = tmp_path / "out.csv.meta.json"
    meta.mkdir()
    (meta / "kept").write_text("x")
    rc = main(
        ["point", "--n0", "3", "--amplitude-vspm", "5e-6",
         "--omega-ev", "0.7", "--out", str(out)]
    )
    assert rc == 3
    assert "Is a directory" in capsys.readouterr().err
    assert out.read_text() == "earlier,run\n"
    assert [p.name for p in meta.iterdir()] == ["kept"]
    assert (meta / "kept").read_text() == "x"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "out.csv", "out.csv.meta.json"
    ]


def test_successful_write_leaves_no_temporary_file(tmp_path):
    out = tmp_path / "out.csv"
    out.write_text("earlier,run\n")
    rc = main(
        ["point", "--n0", "2", "--amplitude-vspm", "1e-6",
         "--omega-ev", "0.5", "--out", str(out)]
    )
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "out.csv", "out.csv.meta.json"
    ]
    header, rows = _read_csv(out)
    assert header == SPECTRUM_HEADER.split(",") and rows
    assert json.loads((tmp_path / "out.csv.meta.json").read_text())["failed_points"] == []


def test_wall_time_ignores_a_step_of_the_wall_clock(tmp_path, monkeypatch):
    # each reading of the wall clock is an hour earlier than the one before
    readings = iter(range(10**9, 0, -3600))
    monkeypatch.setattr(cli.time, "time", lambda: float(next(readings)))
    assert main(_POINT + ["--out", str(tmp_path / "out.csv")]) == 0
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    assert 0 <= meta["wall_time_s"] < 60


def test_threads_option_removed(capsys):
    # the per-point thread pool is gone; the eigensolver's BLAS threads
    # already use every core
    with pytest.raises(SystemExit) as exc:
        main(["point", "--n0", "2", "--amplitude-vspm", "1e-6",
              "--omega-ev", "0.5", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [_SPECTRUM, _INTENSITY, _POINT],
                         ids=["spectrum", "intensity", "point"])
def test_meta_records_w_normalization_error(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    header, rows = _read_csv(out)
    axis = sorted({float(r[0]) for r in rows})
    errors = meta["w_normalization_error"]
    assert [e["axis_value"] for e in errors] == pytest.approx(axis)
    assert all(0 <= e["error"] < 1e-12 for e in errors)


@pytest.mark.parametrize("argv", [_SPECTRUM, _INTENSITY, _POINT, _IONIZATION],
                         ids=["spectrum", "intensity", "point", "ionization"])
def test_meta_records_only_the_settings_the_mode_reads(tmp_path, argv):
    mode = argv[0]
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    assert set(meta["config"]) == set(cli._COMMON_KEYS + cli.MODE_KEYS[mode])
    w_mode = mode != "ionization"
    assert ("tolerances" in meta) is w_mode
    assert ("near_degenerate_axis_values" in meta) is w_mode
    assert ("ambiguous_axis_values" in meta) is not w_mode
    if w_mode:
        assert meta["tolerances"]["w_min"] == meta["config"]["w_min"]


def test_meta_outer_shell_leakage_is_the_csv_w_of_the_outer_shell(tmp_path):
    out = tmp_path / "out.csv"
    assert main(_SPECTRUM + ["--w-min", "0", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    _, rows = _read_csv(out)
    n0 = meta["config"]["n0"]
    leakage = meta["outer_shell_leakage"]
    assert [e["axis_value"] for e in leakage] == [0.2, 0.6]
    for entry in leakage:
        outer = [float(r[7]) for r in rows
                 if float(r[0]) == entry["axis_value"] and int(r[4]) == n0]
        assert len(outer) == n0**2  # --w-min 0 writes every final state
        assert 0 < entry["leakage"] == pytest.approx(sum(outer), rel=1e-12)


def test_meta_records_the_smallest_level_gap(tmp_path):
    # the close pair at n0 = 3, A = 0.0625, omega = 0.5 (atomic units) in
    # the class of (3, 0, 0), where evd's W carries rounding of 7e-12
    units = UnitSystem()
    out = tmp_path / "out.csv"
    assert main([
        "point", "--n0", "3", "--initial", "3", "0", "0",
        "--amplitude-vspm", repr(units.vector_potential_to_si(0.0625)),
        "--omega-ev", repr(units.internal_to_ev(0.5)), "--out", str(out),
    ]) == 0
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    (entry,) = meta["min_eigen_gap"]
    assert entry["gap"] == pytest.approx(9.6e-6, rel=0.01)
    # a class of one level has no gap
    assert main(["point", "--n0", "1", "--amplitude-vspm", "5e-6",
                 "--omega-ev", "0.5", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    assert meta["min_eigen_gap"] == [{"axis_value": 0.5, "gap": None}]


def test_meta_ambiguous_axis_values_are_the_csv_overlaps_below_half(tmp_path):
    # (3, 0, 0) at n0 = 4, resonant with the n = 4 shell (omega = E_4 - E_3):
    # its tracked overlap is 1 at A = 0, 0.497 at A = 0.01 and 0.503 at
    # A = 0.02 (atomic units)
    units = UnitSystem()
    out = tmp_path / "out.csv"
    assert main([
        "ionization", "--n0", "4", "--initial", "3", "0", "0",
        "--omega-ev", repr(units.internal_to_ev(7 / 288)),
        "--a-vspm-start", "0",
        "--a-vspm-stop", repr(units.vector_potential_to_si(0.02)),
        "--count", "3", "--out", str(out),
    ]) == 0
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    _, rows = _read_csv(out)
    overlap = {float(r[0]): float(r[3]) for r in rows}
    assert len(overlap) == 3  # every point has an open channel
    below = [a for a, o in overlap.items() if o < 0.5]
    assert len(below) == 1
    assert meta["ambiguous_axis_values"] == below


def test_meta_lists_the_points_with_every_branch_closed(tmp_path):
    # at 0.5 eV the n0 = 3 basis reaches no continuum: neither point writes
    # a CSV row, and the .meta.json lists both
    out = tmp_path / "closed.csv"
    assert main([
        "ionization", "--n0", "3", "--omega-ev", "0.5", "--a-vspm-start", "1e-6",
        "--a-vspm-stop", "2e-6", "--count", "2", "--out", str(out),
    ]) == 0
    _, rows = _read_csv(out)
    meta = json.loads((tmp_path / "closed.csv.meta.json").read_text())
    assert rows == [] and meta["failed_points"] == []
    assert meta["closed_axis_values"] == [1e-6, 2e-6]
    assert main(["ionization", "--preset", "fig3", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    meta = json.loads((tmp_path / "closed.csv.meta.json").read_text())
    assert meta["closed_axis_values"] == []
    assert len({r[0] for r in rows}) == 10  # every point writes its rows


def test_a_branch_that_no_state_couples_to_reads_zero(tmp_path):
    # 2p0 is in class 1, where no state has mu = -3: by the selection rules
    # mu = -4 reads exactly 0.0, and every other branch reads a magnitude
    out = tmp_path / "out.csv"
    assert main([
        "ionization", "--n0", "4", "--omega-ev", "2.37", "--initial", "2", "1", "0",
        "--a-vspm-start", "5e-7", "--a-vspm-stop", "5e-7", "--count", "1",
        "--out", str(out),
    ]) == 0
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    _, rows = _read_csv(out)
    assert [int(r[5]) for r in rows if float(r[8]) == 0.0] == [-4]
    assert "sigma_cut_branches" not in meta


def test_a_sweep_ends_at_the_stop_it_was_given(tmp_path):
    # start + i * step wrote fig2's last point at 5.000000000000001e-06
    out = tmp_path / "fig2.csv"
    assert main(["intensity", "--preset", "fig2", "--n0", "3", "--out", str(out)]) == 0
    config = json.loads((tmp_path / "fig2.csv.meta.json").read_text())["config"]
    _, rows = _read_csv(out)
    assert float(rows[-1][0]) == config["a_vspm_stop"] == 5e-6
    assert len({r[0] for r in rows}) == config["count"]


# Runs at the edges of sigma and of the tracked state, made once by
# test_runs_without_scipy and held there to the condition beside each.
_EDGES = {
    # mu = -1 opens 1.06e-6 eV above its threshold (k = 2.8e-4), the k -> 0
    # edge of the continuum: sigma within 1e-5 of the 1s threshold value
    "threshold": ["ionization", "--n0", "4", "--omega-ev", "13.605694",
                  "--a-vspm-start", "1e-9", "--a-vspm-stop", "1e-9", "--count", "1"],
    # the recurrences in l run through every shell of the n0 cap, with
    # photoelectrons from 0.079 to 395 eV (k up to 5.4): sigma > 0 on every
    # branch with mu >= -28 (mu = -30 underflows the double range to 0.0,
    # mu = -29 reads a subnormal 5.1e-316)
    "cap": ["ionization", "--n0", "30", "--omega-ev", "13.62",
            "--a-vspm-start", "5e-7", "--a-vspm-stop", "5e-7", "--count", "1"],
    # p_x couples neither 2s, even, nor 2p0, odd, which tie exactly at every
    # field: the tie rule counts 2p0 after 2s, so 2s is at 2 on every row
    "tie": ["ionization", "--n0", "2", "--omega-ev", "13.6", "--initial", "2", "0", "0",
            "--a-vspm-start", "0", "--a-vspm-stop", "5e-5", "--count", "6"],
    # fig3's field from 2p mu = -1: the class solve picks the state at 9 of
    # the 10 points, and sigma reads every component of it (down to 1.7e-48)
    "class_solve": ["ionization", "--preset", "fig3", "--initial", "2", "1", "-1"],
    # mu = -1 is 0.038 eV above its threshold: sigma > 0 on every branch
    # (down to 1.4e-77 on mu = -10)
    "near_threshold": ["ionization", "--n0", "10", "--omega-ev", "13.585",
                       "--a-vspm-start", "5e-7", "--a-vspm-stop", "5e-7", "--count", "1"],
}


def test_runs_without_scipy(tmp_path):
    # numpy's LAPACK does every solve: scipy's, with its own BLAS thread
    # pool, is never loaded, and no function of the package calls mpmath.
    # Every mode runs where both are installed, loading no scipy module and
    # no mpmath submodule, and where neither can be found or imported; the
    # runs at the edges run there only.  A numpy RuntimeWarning is an error
    # in both interpreters, so no run passes through a non-finite value.
    script = (
        "import json, sys\n"
        "from laserhydrogen import specfun\n"
        "from laserhydrogen.cli import main\n"
        "out, runs = sys.argv[1], json.loads(sys.argv[2])\n"
        "for name, argv in runs.items():\n"
        "    assert main(argv + ['--out', f'{out}/{name}.csv']) == 0, argv\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not [m for m in sys.modules if m.startswith('mpmath.')]\n"
        "print(specfun.mpmath is None)\n"
    )
    modes = {"point": _POINT, "spectrum": _SPECTRUM, "intensity": _INTENSITY,
             "ionization": _IONIZATION}
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for prefix, absent, runs in (("", "False", modes),
                                 (WITHOUT_ORACLES, "True", {**modes, **_EDGES})):
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", prefix + script,
             str(tmp_path), json.dumps(runs)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == absent
        rows = _read_csv(tmp_path / "ionization.csv")[1]
        assert rows and all(float(r[8]) > 0 for r in rows)  # sigma was computed

    rows = {name: _read_csv(tmp_path / f"{name}.csv")[1] for name in _EDGES}
    for name in _EDGES:
        meta = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
        assert meta["failed_points"] == [], name
    # 2^9 pi alpha/(3 e^4) = 0.0716615 pi a0^2; the run reads 2.6e-7 below
    # it: 8k^2/3 from the finite k, the rest from the field
    (threshold,) = [float(r[8]) for r in rows["threshold"] if r[5] == "-1"]
    alpha = 7.2973525693e-3
    assert threshold == pytest.approx(2**9 * math.pi * alpha / (3 * math.e**4), rel=1e-5)
    assert rows["cap"] and all(float(r[8]) > 0 for r in rows["cap"] if int(r[5]) >= -28)
    assert len(rows["tie"]) == 25 and {r[2] for r in rows["tie"]} == {"2"}
    for name, count in (("class_solve", 84), ("near_threshold", 10)):
        assert len(rows[name]) == count and all(float(r[8]) > 0 for r in rows[name])


def test_eigensolver_failure_is_a_failed_point(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("injected: no convergence")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    out = tmp_path / "out.csv"
    assert main(_SPECTRUM + ["--out", str(out)]) == 1
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    assert [p["axis_value"] for p in meta["failed_points"]] == [0.2, 0.6]
    for point in meta["failed_points"]:
        assert point["error"].startswith("eigensolver failed")
        assert "injected" in point["error"]
        assert point["type"] == "ConvergenceError"
        assert point["where"].startswith("laserhydrogen.eigensolver.")
    _, rows = _read_csv(out)
    assert [r[0] for r in rows] == ["0.2", "0.6"]
    assert all(r[8] == "failed" for r in rows)
    assert meta["w_normalization_error"] == []


def _fail_diagonalize_when(monkeypatch, fails):
    """The scan engine's eigensolve raises at each point whose laser fails.

    A matrix does not keep its laser, so the laser of the last assemble
    call, which each point makes just before its solve, is the one read."""
    real_assemble, real_diagonalize = transitions.assemble, transitions.diagonalize
    lasers = []

    def assemble(basis, laser, *args, **kwargs):
        lasers.append(laser)
        return real_assemble(basis, laser, *args, **kwargs)

    def flaky(matrix):
        if fails(lasers[-1]):
            raise RuntimeError("synthetic mid-scan failure")
        return real_diagonalize(matrix)

    monkeypatch.setattr(transitions, "assemble", assemble)
    monkeypatch.setattr(transitions, "diagonalize", flaky)


def _fail_tracked_solve_when(monkeypatch, fails):
    """An ionization point's solve of its tracked state raises at each
    point whose laser fails."""
    real = ionization.track_state

    def flaky(basis, laser, target):
        if fails(laser):
            raise RuntimeError("synthetic mid-scan failure")
        return real(basis, laser, target)

    monkeypatch.setattr(ionization, "track_state", flaky)


def test_failed_point_fault_injection(tmp_path, monkeypatch):
    omega = UnitSystem().ev_to_internal(0.4)
    _fail_diagonalize_when(
        monkeypatch, lambda laser: abs(laser.omega - omega) < 1e-12
    )
    out = tmp_path / "flaky.csv"
    rc = main(
        ["spectrum", "--n0", "3", "--amplitude-vspm", "5e-6",
         "--omega-ev-start", "0.2", "--omega-ev-stop", "0.6",
         "--count", "3", "--out", str(out)]
    )
    assert rc == 1
    header, rows = _read_csv(out)
    failed = [r for r in rows if r[8] == "failed"]
    assert len(failed) == 1
    assert failed[0][0] == "0.4"
    assert failed[0][4] == "-1" and failed[0][5] == "-1"
    assert math.isnan(float(failed[0][7]))
    # the other points still produced data
    assert {float(r[0]) for r in rows if r[8] != "failed"} == {0.2, 0.6}
    meta = json.loads((tmp_path / "flaky.csv.meta.json").read_text())
    assert meta["failed_points"][0]["axis_value"] == 0.4
    assert "synthetic" in meta["failed_points"][0]["error"]
    assert meta["failed_points"][0]["type"] == "RuntimeError"
    assert meta["failed_points"][0]["where"].endswith(".flaky")


def test_failed_bound_free_integral_fails_one_point(
    tmp_path, bound_free_fails_at_second_point
):
    out = tmp_path / "ion.csv"
    assert main(_IONIZATION + ["--out", str(out)]) == 1
    _, rows = _read_csv(out)
    failed = [r for r in rows if r[8] == "failed"]
    assert len(failed) == 1
    assert float(failed[0][0]) == pytest.approx(3e-6)
    assert failed[0][2] == "-1" and math.isnan(float(failed[0][7]))
    meta = json.loads((tmp_path / "ion.csv.meta.json").read_text())
    assert len(meta["failed_points"]) == 1
    assert meta["failed_points"][0]["axis_value"] == pytest.approx(3e-6)
    assert "injected bound-free failure" in meta["failed_points"][0]["error"]
    assert meta["failed_points"][0]["type"] == "DomainError"
    # the module.function of the frame that raised: the (injected) integrals
    assert meta["failed_points"][0]["where"].split(".")[-1] == "_bound_free_ladders"
    # the neighbouring points are exactly what an undisturbed run writes (the
    # injected failure only hits the second point of a process, so this
    # second run computes every point)
    ref = tmp_path / "ref.csv"
    assert main(_IONIZATION + ["--out", str(ref)]) == 0
    _, ref_rows = _read_csv(ref)
    assert [r for r in rows if r[8] != "failed"] == [
        r for r in ref_rows if r[0] != failed[0][0]
    ]
    assert {r[0] for r in ref_rows} == {r[0] for r in rows}


# --- the library's sweep and the CLI write the same records -----------------

GROUND = QuantumNumbers(1, 0, 0)


def _axis_of(rows):
    """The axis values of a CSV, in order, as the floats the CLI swept."""
    return [float(a) for a in dict.fromkeys(r[0] for r in rows)]


def _failed_points_of(points):
    return [
        {"axis_value": p.axis_value, "error": p.error, "type": p.type,
         "where": p.where}
        for p in points if p.failed
    ]


def _spectrum_rows_of(points):
    head = [str(GROUND.n), str(GROUND.l), str(GROUND.mu)]
    expected = []
    for p in points:
        if p.failed:
            expected.append([repr(p.axis_value)] + head + ["-1", "-1", "0", "nan",
                                                          "failed"])
            continue
        for state, w in zip(p.table.basis.states, p.table.probabilities):
            if w >= 1e-12:
                expected.append(
                    [repr(p.axis_value)] + head
                    + [str(state.n), str(state.l), str(state.mu), repr(float(w)),
                       str(int(p.near_degenerate))]
                )
    return expected


def _ionization_rows_of(points, units):
    expected = []
    for p in points:
        if p.failed:
            expected.append([repr(p.axis_value), "2.37", "-1", "nan", "nan", "0",
                             "nan", "nan", "failed"])
            continue
        for rec in p.records:
            expected.append([
                repr(p.axis_value), "2.37", str(p.dressed_index), repr(p.overlap),
                repr(rec.E_i), str(rec.mu_branch),
                repr(units.internal_to_ev(rec.E_f0)), repr(rec.eta),
                repr(units.cross_section_to_pi_a0sq(rec.sigma)),
            ])
    return expected


@pytest.mark.parametrize("mode", ["spectrum", "intensity"])
def test_spectrum_scans_agree_with_the_cli(tmp_path, monkeypatch, mode):
    # The CLI writes the records of `sweep`, and `scan` on fields built here
    # from the CSV's axis gives the same records: sweep builds the fields
    # the axis names.
    units = UnitSystem()
    if mode == "spectrum":  # 5e-6 V*s/m, 0.25 .. 0.75 eV; the middle point fails
        flags = {"amplitude_vspm": 5e-6, "omega_ev_start": 0.25, "omega_ev_stop": 0.75}
        omega_mid = units.ev_to_internal(0.5)
        _fail_diagonalize_when(
            monkeypatch, lambda laser: abs(laser.omega - omega_mid) < 1e-12
        )
    else:  # 0.5 eV, A = 0 .. 2e-6 V*s/m; degenerate at A = 0, the last fails
        flags = {"omega_ev": 0.5, "a_vspm_start": 0.0, "a_vspm_stop": 2e-6}
        a_mid = units.vector_potential_to_internal(1.5e-6)
        _fail_diagonalize_when(monkeypatch, lambda laser: laser.amplitude_A > a_mid)
    argv = [mode, "--n0", "4", "--count", "3"]
    for key, value in flags.items():
        argv += ["--" + key.replace("_", "-"), repr(value)]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    _, rows = _read_csv(out)
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    points = cli.sweep(parse_config(overrides=dict(mode=mode, n0=4, count=3, **flags)))
    axis = _axis_of(rows)
    if mode == "spectrum":
        amplitude = units.vector_potential_to_internal(5e-6)
        lasers = [LaserField(amplitude, units.ev_to_internal(w)) for w in axis]
    else:
        omega = units.ev_to_internal(0.5)
        lasers = [LaserField(units.vector_potential_to_internal(a), omega)
                  for a in axis]
    scanned = scan(axis, lasers,
                   partial(ScanPoint.observe, enumerate_basis(4), GROUND))
    assert rows == _spectrum_rows_of(points) == _spectrum_rows_of(scanned)
    assert [p.failed for p in points].count(True) == 1
    assert meta["failed_points"] == _failed_points_of(points)
    assert meta["near_degenerate_axis_values"] == [
        p.axis_value for p in points if not p.failed and p.near_degenerate
    ]
    if mode == "intensity":
        assert meta["near_degenerate_axis_values"] == [0.0]


def test_ionization_scan_agrees_with_the_cli(tmp_path, monkeypatch):
    units = UnitSystem()
    a_mid = units.vector_potential_to_internal(3e-6)
    _fail_tracked_solve_when(
        monkeypatch, lambda laser: math.isclose(laser.amplitude_A, a_mid, rel_tol=1e-9),
    )
    out = tmp_path / "ion.csv"
    assert main(_IONIZATION + ["--out", str(out)]) == 1
    _, rows = _read_csv(out)
    meta = json.loads((tmp_path / "ion.csv.meta.json").read_text())
    points = cli.sweep(parse_config(overrides={
        "mode": "ionization", "n0": 6, "omega_ev": 2.37,
        "a_vspm_start": 2e-6, "a_vspm_stop": 4e-6, "count": 3,
    }))
    omega = units.ev_to_internal(2.37)
    axis = _axis_of(rows)
    scanned = scan(
        axis, [LaserField(units.vector_potential_to_internal(a), omega) for a in axis],
        partial(IonizationScanPoint.observe, enumerate_basis(6), GROUND),
    )
    assert rows == _ionization_rows_of(points, units) == _ionization_rows_of(
        scanned, units
    )
    assert [p.failed for p in points] == [False, True, False]
    assert meta["failed_points"] == _failed_points_of(points)
    assert meta["ambiguous_axis_values"] == [
        p.axis_value for p in points if not p.failed and p.ambiguous
    ]


def test_sweep_reads_drop_a2_and_the_reduced_mass():
    # the options the CLI reads are the library's too
    base = cli.sweep(parse_config(preset="fig3", overrides={"count": 2}))
    no_a2 = cli.sweep(parse_config(preset="fig3",
                                   overrides={"count": 2, "drop_a2": True}))
    heavy = cli.sweep(parse_config(preset="fig3",
                                   overrides={"count": 2, "reduced_mass": True}))
    units = UnitSystem()
    for p, q, r in zip(base, no_a2, heavy):
        assert (q.dressed_index, q.overlap) == (p.dressed_index, p.overlap)
        shift = 0.5 * units.vector_potential_to_internal(p.axis_value) ** 2
        assert {s.E_i for s in q.records} == {p.records[0].E_i - shift}
        assert r.records[0].E_i != p.records[0].E_i
    assert list(inspect.signature(cli.sweep).parameters) == ["config"]


def test_import_laserhydrogen_loads_no_argparse():
    # the package does not import cli: its sweep is imported from there
    script = (
        "import sys\n"
        "import laserhydrogen\n"
        "assert 'laserhydrogen.cli' not in sys.modules\n"
        "assert 'argparse' not in sys.modules\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "argv, axis",
    [(_POINT, "eV"), (_SPECTRUM, "eV"), (_INTENSITY, "V*s/m"),
     (_IONIZATION[:-1] + ["1", "--a-vspm-stop", "2e-6"], "V*s/m")],
    ids=["point", "spectrum", "intensity", "ionization"],
)
def test_meta_labels_the_axis_unit(tmp_path, argv, axis):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    assert meta["units"]["axis"] == axis
    if argv is _POINT:  # the point's axis value is its photon energy
        _, rows = _read_csv(out)
        assert {r[0] for r in rows} == {"0.5"}


def test_ionization_rows_print_the_configured_omega(tmp_path, monkeypatch):
    # 4.0 eV does not survive the eV -> hartree -> eV round trip
    units = UnitSystem()
    assert units.internal_to_ev(units.ev_to_internal(4.0)) != 4.0
    a_mid = units.vector_potential_to_internal(1.5e-6)
    _fail_tracked_solve_when(monkeypatch, lambda laser: laser.amplitude_A > a_mid)
    out = tmp_path / "ion.csv"
    argv = ["ionization", "--n0", "4", "--omega-ev", "4.0",
            "--a-vspm-start", "1e-6", "--a-vspm-stop", "2e-6", "--count", "2"]
    assert main(argv + ["--out", str(out)]) == 1
    _, rows = _read_csv(out)
    assert sum(r[8] == "failed" for r in rows) == 1
    assert len(rows) > 1
    assert {r[1] for r in rows} == {"4.0"}  # computed and failed rows alike


def _tracked_by_axis(rows):
    """(dressed_index, overlap, E_i) per axis value of an ionization CSV;
    every branch row of a point repeats them."""
    return {r[0]: (r[2], r[3], r[4]) for r in rows}


def test_drop_a2_shifts_e_i_and_keeps_the_tracked_state(tmp_path):
    # A^2/2 is a multiple of the identity: without it the very same dressed
    # state is tracked, and only its pseudo-energy moves, by exactly A^2/2
    base = ["ionization", "--preset", "fig3"]
    out1, out2 = tmp_path / "a2.csv", tmp_path / "noa2.csv"
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2), "--drop-a2"]) == 0
    meta2 = json.loads((tmp_path / "noa2.csv.meta.json").read_text())
    assert meta2["config"]["drop_a2"] is True
    with_a2 = _tracked_by_axis(_read_csv(out1)[1])
    without = _tracked_by_axis(_read_csv(out2)[1])
    assert list(without) == list(with_a2) and len(with_a2) == 10
    units = UnitSystem()
    for axis, (index, overlap, e_i) in with_a2.items():
        amplitude = units.vector_potential_to_internal(float(axis))
        assert without[axis] == (index, overlap, repr(float(e_i) - 0.5 * amplitude**2))


def test_reduced_mass_shifts_energies(tmp_path):
    base = ["ionization", "--n0", "6", "--omega-ev", "2.37",
            "--a-vspm-start", "4e-6", "--a-vspm-stop", "4e-6", "--count", "1"]
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2), "--reduced-mass"]) == 0
    _, rows1 = _read_csv(out1)
    _, rows2 = _read_csv(out2)
    e1, e2 = float(rows1[0][4]), float(rows2[0][4])
    assert e1 != e2
    assert e2 == pytest.approx(e1, rel=5e-3)  # sub-percent mass correction


@pytest.mark.parametrize(
    "argv, message",
    [
        (_POINT + ["--n0", "40"], r"n0 must be in \[1, 30\], got 40"),
        (_POINT + ["--omega-ev", "nan"], "omega_ev must be finite"),
        (_POINT + ["--omega-ev=-1"], "omega_ev must be positive"),
        (_POINT + ["--amplitude-vspm=-1e-6"], "amplitude_vspm must be >= 0"),
        (_SPECTRUM + ["--amplitude-vspm", "inf"], "amplitude_vspm must be finite"),
        (_SPECTRUM + ["--omega-ev-start", "0"], "omega_ev_start must be positive"),
        (_POINT + ["--initial", "5", "0", "0", "--n0", "4"],
         r"initial state \(n, l, mu\) = \(5, 0, 0\) is outside the n0=4 basis"),
        # finite in V*s/m, but not in atomic units
        (_POINT + ["--amplitude-vspm", "1e308"], "amplitude_A must be finite"),
        (_POINT + ["--w-min", "2"], r"w_min must be in \[0, 1\], got 2.0"),
        (_SPECTRUM + ["--w-min=-1"], r"w_min must be in \[0, 1\], got -1.0"),
        (_POINT + ["--w-min", "1.5"], r"w_min must be in \[0, 1\], got 1.5"),
    ],
    ids=["n0-above-cap", "omega-nan", "omega-negative", "amplitude-negative",
         "amplitude-inf", "omega-start-zero", "initial-outside-basis",
         "amplitude-overflows", "w-min-above-one", "w-min-negative",
         "w-min-one-and-a-half"],
)
def test_bad_input_rejected_at_the_boundary(tmp_path, capsys, argv, message):
    out = tmp_path / "bad.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert re.search(message, err)
    assert not out.exists()


# At count 1 a sweep computes its start alone: a stop other than the start
# would go unread, so it is refused, naming both keys; an equal stop runs.
@pytest.mark.parametrize("argv, axis", [
    (_SPECTRUM, "omega_ev"), (_INTENSITY, "a_vspm"), (_IONIZATION, "a_vspm"),
], ids=["spectrum", "intensity", "ionization"])
def test_count_1_refuses_a_stop_other_than_the_start(tmp_path, capsys, argv, axis):
    out = tmp_path / "one.csv"
    assert main(argv + ["--count", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert f"{axis}_start" in err and f"{axis}_stop" in err
    assert not out.exists() and not (tmp_path / "one.csv.meta.json").exists()
    flag = "--" + axis.replace("_", "-")
    start = argv[argv.index(f"{flag}-start") + 1]
    equal = argv + ["--count", "1", f"{flag}-stop", start, "--out", str(out)]
    assert main(equal) == 0
    _, rows = _read_csv(out)
    assert rows and {float(r[0]) for r in rows} == {float(start)}


def test_parse_config_refuses_count_1_with_a_stop_other_than_the_start():
    with pytest.raises(ConfigurationError, match="a_vspm_start.*a_vspm_stop"):
        parse_config(preset="fig3", overrides={"count": 1})
    config = parse_config(preset="fig3", overrides={"count": 1, "a_vspm_stop": 5e-7})
    assert (config.count, config.a_vspm_stop) == (1, config.a_vspm_start)


@pytest.mark.parametrize(
    "argv, flags",
    [
        (_POINT + ["--count", "7", "--a-vspm-start", "1", "--omega-ev-start", "9"],
         ["--count", "--a-vspm-start", "--omega-ev-start"]),
        (_IONIZATION + ["--w-min", "1e-6"], ["--w-min"]),
        (["point", "--preset", "fig3"], ["--preset"]),
        (_SPECTRUM + ["--omega-ev", "0.5"], ["--omega-ev"]),
        (_INTENSITY + ["--amplitude-vspm", "1e-6"], ["--amplitude-vspm"]),
        (_POINT + ["--drop-a2"], ["--drop-a2"]),
        # a prefix is not the flag it begins: not --omega-ev, not --drop-a2
        (["point", "--n0", "2", "--amplitude-vspm", "1e-6", "--omega", "0.5"],
         ["unrecognized arguments: --omega 0.5"]),
        (_IONIZATION + ["--drop"], ["unrecognized arguments: --drop\n"]),
    ],
    ids=["point-sweep-flags", "ionization-w-min", "point-fig3-preset",
         "spectrum-omega", "intensity-amplitude", "point-drop-a2",
         "point-omega-prefix", "ionization-drop-prefix"],
)
def test_keys_the_mode_does_not_read_are_rejected(tmp_path, capsys, argv, flags):
    out = tmp_path / "bad.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags)
    assert not out.exists()


@pytest.mark.parametrize("mode", list(cli.MODE_KEYS))
def test_each_subcommand_takes_the_flags_of_the_keys_its_mode_reads(mode, capsys):
    keys = [k for k in cli._COMMON_KEYS + cli.MODE_KEYS[mode]
            if k != "mode" and not k.startswith("initial_")]
    flags = {"--out" if k == "output_path" else "--" + k.replace("_", "-")
             for k in keys}
    dests = set(keys) | {"mode", "initial"}
    if any(p["mode"] == mode for p in cli.PRESETS.values()):
        flags.add("--preset")
        dests.add("preset")
    with pytest.raises(SystemExit) as exc:
        main([mode, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"^  (--[a-z0-9-]+)", capsys.readouterr().out, re.M)) == (
        flags | {"--initial"}
    )
    assert set(vars(cli.build_parser().parse_args([mode]))) == dests


@pytest.mark.parametrize("name", sorted(cli.PRESETS))
def test_each_preset_sets_only_keys_its_mode_reads(name, capsys):
    preset = cli.PRESETS[name]
    assert set(preset) <= set(cli._COMMON_KEYS + cli.MODE_KEYS[preset["mode"]])
    for mode in sorted(set(cli.MODE_KEYS) - {preset["mode"]}):
        with pytest.raises(SystemExit) as exc:
            main([mode, "--preset", name])
        assert exc.value.code == 2
        assert "--preset" in capsys.readouterr().err


@pytest.mark.parametrize("mode", list(cli.MODE_KEYS))
def test_every_key_a_mode_reads_is_accepted(mode):
    presets = {"spectrum": "fig1", "intensity": "fig2", "ionization": "fig3"}
    values = {"amplitude_vspm": 1e-6, "omega_ev": 0.5, "omega_ev_start": 0.2,
              "omega_ev_stop": 0.6, "a_vspm_start": 0.0, "a_vspm_stop": 1e-6,
              "count": 2, "w_min": 0.0, "drop_a2": True}
    overrides = {key: values[key] for key in cli.MODE_KEYS[mode]}
    config = parse_config(overrides={"mode": mode, "n0": 3, **overrides},
                          preset=presets.get(mode))
    for key, value in overrides.items():
        assert getattr(config, key) == value
