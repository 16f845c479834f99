import csv
import json
import math
import re

import pytest

import laserhydrogen.cli as cli
from laserhydrogen.cli import IONIZATION_HEADER, SPECTRUM_HEADER, main, parse_config
from laserhydrogen.errors import ConfigurationError


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


def test_parse_config_file_and_precedence(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nmode = spectrum\nn0 = 4\ncount = 3\n"
        "[laser]\namplitude_vspm = 5e-6\nomega_ev_start = 0.2\n"
        "omega_ev_stop = 0.6\n"
        "[output]\nw_min = 1e-6\nreduced_mass = yes\n"
    )
    config = parse_config(path=str(ini), overrides={"n0": 6, "mode": "spectrum"})
    assert config.n0 == 6  # flag beats file
    assert config.count == 3
    assert config.w_min == 1e-6
    assert config.reduced_mass is True


def test_parse_config_preset_overridable():
    config = parse_config(
        preset="fig3", overrides={"mode": "ionization", "n0": 4, "count": 2}
    )
    assert config.mode == "ionization"
    assert config.omega_ev == 2.37
    assert config.a_vspm_start == 5e-7
    assert config.a_vspm_stop == 5e-6
    assert config.n0 == 4 and config.count == 2


def test_parse_config_rejects_unknown_key(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[run]\nmode = point\nwibble = 3\n")
    with pytest.raises(ConfigurationError, match="wibble"):
        parse_config(path=str(ini))


def test_parse_config_rejects_bad_bool(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[run]\nmode = point\nreduced_mass = maybe\n")
    with pytest.raises(ConfigurationError, match="boolean"):
        parse_config(path=str(ini))


def test_parse_config_missing_file():
    with pytest.raises(ConfigurationError, match="not readable"):
        parse_config(path="/nonexistent/x.ini", overrides={"mode": "point"})


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


# --- end-to-end runs --------------------------------------------------------

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


def test_spectrum_run_and_threads_determinism(tmp_path):
    args = ["spectrum", "--n0", "3", "--amplitude-vspm", "5e-6",
            "--omega-ev-start", "0.2", "--omega-ev-stop", "0.6",
            "--count", "3"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
    assert main(args + ["--out", str(out2), "--threads", "3"]) == 0
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


def test_threads_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "2")
    out = tmp_path / "env.csv"
    rc = main(
        ["point", "--n0", "2", "--amplitude-vspm", "1e-6",
         "--omega-ev", "0.5", "--out", str(out)]
    )
    assert rc == 0
    meta = json.loads((tmp_path / "env.csv.meta.json").read_text())
    assert meta["config"]["threads"] == 2


def test_threads_env_var_invalid(monkeypatch, capsys):
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "lots")
    assert main(
        ["point", "--n0", "2", "--amplitude-vspm", "1e-6", "--omega-ev", "0.5"]
    ) == 2


def test_failed_point_fault_injection(tmp_path, monkeypatch):
    real = cli._compute_spectrum_point

    def flaky(config, units, axis_value, amp_au, omega_au):
        if abs(axis_value - 0.4) < 1e-12:
            raise RuntimeError("synthetic mid-scan failure")
        return real(config, units, axis_value, amp_au, omega_au)

    monkeypatch.setattr(cli, "_compute_spectrum_point", flaky)
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


def test_drop_a2_changes_results(tmp_path):
    base = ["point", "--n0", "3", "--amplitude-vspm", "5e-6", "--omega-ev", "0.5"]
    out1, out2 = tmp_path / "a2.csv", tmp_path / "noa2.csv"
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2), "--drop-a2"]) == 0
    meta2 = json.loads((tmp_path / "noa2.csv.meta.json").read_text())
    assert meta2["config"]["drop_a2"] is True
    # W tables coincide to solver precision: a constant diagonal shift cannot
    # change eigenvectors, only pseudo-energies
    _, rows1 = _read_csv(out1)
    _, rows2 = _read_csv(out2)
    assert [r[:7] for r in rows1] == [r[:7] for r in rows2]
    for r1, r2 in zip(rows1, rows2):
        assert float(r1[7]) == pytest.approx(float(r2[7]), rel=1e-9)


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


_POINT = ["point", "--n0", "3", "--amplitude-vspm", "5e-6", "--omega-ev", "0.5"]
_SPECTRUM = ["spectrum", "--n0", "3", "--amplitude-vspm", "5e-6",
             "--omega-ev-start", "0.2", "--omega-ev-stop", "0.6", "--count", "2"]


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
    ],
    ids=["n0-above-cap", "omega-nan", "omega-negative", "amplitude-negative",
         "amplitude-inf", "omega-start-zero", "initial-outside-basis"],
)
def test_bad_input_rejected_at_the_boundary(tmp_path, capsys, argv, message):
    out = tmp_path / "bad.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert re.search(message, err)
    assert not out.exists()
