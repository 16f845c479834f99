"""Benchmark of the laserhydrogen CLI: seeded sweeps, end to end and per layer.

    python3 perfbench/run.py --workload spectrum-n18 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the program is imported from ``src/``.
Each repetition is a fresh child interpreter (``child.py``) that imports
the package, computes the workload's first point alone (cold pass) and then
the whole seeded sweep (warm pass) through ``laserhydrogen.cli.main``.
Every point of every repetition goes through the correctness gate
(``gate.py``).

``--trace 0`` repeats untraced repetitions for ``--seconds`` and prints the
end-to-end metrics as medians over them.  ``--trace 1`` runs one untraced
and one traced repetition of the same inputs plus a single-thread eigensolve
probe, and prints the per-layer metrics.  ``--workload all`` does both for
every workload.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from workloads import WORKLOADS, make_inputs, probe_field

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"
REFERENCE_SEEDS = range(20)

RUN_LIMIT_S = 170        # a run must end within 180 s
MIN_REPS = 3             # untraced repetitions per run, at least
PROBE_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}
PER_LAYER = {
    "package.import_s": "s",
    "basis.enumerate_s": "s",
    "basis.radial_s": "s",
    "basis.radial_cold_s": "s",
    "basis.radial_calls": "count",
    "basis.radial_misses": "count",
    "basis.radial_hit_ratio": "ratio",
    "specfun.laplace_s": "s",
    "specfun.laplace_calls": "count",
    "hamiltonian.assemble_self_s": "s",
    "hamiltonian.assemble_calls": "count",
    "hamiltonian.matrix_bytes": "B",
    "eigensolver.diagonalize_s": "s",
    "eigensolver.diagonalize_calls": "count",
    "eigensolver.dim": "count",
    "eigensolver.first_call_s": "s",
    "eigensolver.track_s": "s",
    "eigensolver.single_thread_s": "s",
    "transitions.table_s": "s",
    "ionization.records_self_s": "s",
    "ionization.bound_free_calls": "count",
    "ionization.bf_radial_misses": "count",
    "ionization.bf_radial_hit_ratio": "ratio",
    "ionization.open_branches": "count",
    "specfun.appell_f2_s": "s",
    "specfun.appell_f2_calls": "count",
    "specfun.hyp2f1_s": "s",
    "specfun.hyp2f1_calls": "count",
    "cli.self_s": "s",
    "cli.rows": "count",
    "cli.csv_bytes": "B",
    "trace.warm_s": "s",
    "trace.untraced_warm_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


class HarnessError(Exception):
    """The benchmark cannot run here (no program, or the wrong one)."""


# --- environment --------------------------------------------------------------


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(blas_threads):
    """Program from this checkout's ``src``; BLAS capped; no program knobs."""
    env = dict(os.environ)
    env.pop("LASERHYDROGEN_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    for var in BLAS_THREAD_VARS:
        env[var] = str(blas_threads)
    return env


def environment():
    env = {"nproc": nproc(), "cpu_model": "unknown", "git_commit": "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            env["git_commit"] = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    env["blas_thread_env"] = {v: child_env(nproc())[v] for v in BLAS_THREAD_VARS}
    return env


# --- one repetition -----------------------------------------------------------


def _spawn(spec, rundir, blas_threads, deadline):
    spec_path = rundir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "run time limit reached"
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=rundir, env=child_env(blas_threads), timeout=timeout,
            capture_output=True, text=True,
        )
    except subprocess.TimeoutExpired:
        return None, "child timed out"
    if done.returncode != 0:
        return None, f"child exit {done.returncode}: {done.stderr.strip()[-400:]}"
    return json.loads(Path(spec["result"]).read_text()), None


def run_repetition(inputs, rundir, trace, deadline, reference=None):
    """Spawn one child, gate its outputs; returns the repetition record."""
    rundir.mkdir(parents=True, exist_ok=True)
    spec = {"trace": bool(trace), "result": str(rundir / "result.json"),
            "trace_path": str(rundir / "trace.json.gz")}
    for name, calls in inputs.items():
        spec[name] = [list(c.argv) + ["--out", str(rundir / f"{name}-{i}.csv")]
                      for i, c in enumerate(calls)]
    result, error = _spawn(spec, rundir, nproc(), deadline)
    rep = {"attempted": 0, "failed": 0, "messages": [], "rows": 0,
           "csv_bytes": 0, "fingerprints": {}, "result": result}
    if error:
        rep["messages"].append(error)
    elif not Path(result["package_file"]).resolve().is_relative_to(SRC.resolve()):
        raise HarnessError(f"imported {result['package_file']}, not {SRC}")
    for name, calls in inputs.items():
        prints = rep["fingerprints"][name] = []
        for i, call in enumerate(calls):
            rep["attempted"] += len(call.axis)
            if result is None:
                rep["failed"] += len(call.axis)
                continue
            csv_path = rundir / f"{name}-{i}.csv"
            ref = _matching_reference(reference, name, i, call)
            check = gate.check_call(
                csv_path, call, result["passes"][name]["codes"][i], ref
            )
            rep["failed"] += len(check.failed)
            rep["messages"] += check.messages
            prints.append(check.fingerprint)
            if name == "warm" and csv_path.exists():
                rep["csv_bytes"] += csv_path.stat().st_size
                with open(csv_path) as fh:
                    rep["rows"] += sum(1 for _ in fh) - 1
        if result is not None:
            rep["messages"] += result["passes"][name]["errors"]
    for path in rundir.glob("*.csv*"):
        path.unlink()
    return rep


def _matching_reference(reference, name, i, call):
    """Stored points of this call, if the stored inputs are the same."""
    try:
        entry = reference[name][i]
    except (TypeError, KeyError, IndexError):
        return None
    return entry["points"] if entry["argv"] == list(call.argv) else None


def load_reference(workload, seed):
    try:
        refs = json.loads(REFERENCES.read_text())
    except (OSError, ValueError):
        return None
    return refs.get(workload.name, {}).get(str(seed))


# --- metrics ------------------------------------------------------------------


def end_to_end(workload, seed, seconds, rundir, deadline):
    inputs = make_inputs(workload, seed)
    reference = load_reference(workload, seed)
    start = time.monotonic()
    reps = []
    while True:
        reps.append(run_repetition(inputs, rundir / f"rep{len(reps)}", 0,
                                   deadline, reference))
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed + per_rep > seconds:
            break
        if time.monotonic() + 1.5 * per_rep > deadline:
            break
    ok = [r["result"] for r in reps if r["result"] is not None]
    if not ok:
        raise HarnessError("no repetition completed: " + "; ".join(
            m for r in reps for m in r["messages"][:1]))
    setup = [r["import_s"] + r["passes"]["cold"]["wall_s"] for r in ok]
    points = sum(len(c.axis) for c in inputs["warm"])
    rate = [points / r["passes"]["warm"]["wall_s"] for r in ok]
    rss = [r["peak_rss_mb"] for r in ok]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics = {
        "setup_s": statistics.median(setup),
        "points_per_s": statistics.median(rate),
        "peak_rss_mb": statistics.median(rss),
        "pass_frac": (attempted - failed) / attempted,
    }
    raw = {"setup_s": setup, "points_per_s": rate, "peak_rss_mb": rss}
    return metrics, reps, raw


def _layer(profile, name, key="incl_s"):
    return profile.get(name, {}).get(key, 0)


def _cache(caches, match):
    """Misses and hit ratio of the package caches whose name matches."""
    hits = sum(v["hits"] for k, v in caches.items() if match(k))
    misses = sum(v["misses"] for k, v in caches.items() if match(k))
    return misses, (hits / (hits + misses) if hits + misses else 0.0)


def per_layer(workload, seed, rundir, deadline):
    inputs = make_inputs(workload, seed)
    reference = load_reference(workload, seed)
    plain = run_repetition(inputs, rundir / "untraced", 0, deadline, reference)
    traced = run_repetition(inputs, rundir / "traced", 1, deadline, reference)
    if plain["result"] is None or traced["result"] is None:
        raise HarnessError("traced run failed: " + "; ".join(
            plain["messages"][:1] + traced["messages"][:1]))
    probe_dir = rundir / "probe"
    probe_dir.mkdir(parents=True, exist_ok=True)
    probe, error = _spawn(
        {"probe": probe_field(workload, seed), "repeats": PROBE_REPEATS,
         "result": str(probe_dir / "result.json")},
        probe_dir, 1, deadline,
    )
    if error:
        raise HarnessError(f"single-thread probe failed: {error}")

    result = traced["result"]
    cold, warm = result["passes"]["cold"], result["passes"]["warm"]
    cp, wp = cold["profile"], warm["profile"]
    bb_misses, bb_ratio = _cache(
        warm["caches"], lambda k: k.endswith(".radial_length_integral"))
    bf_misses, bf_ratio = _cache(
        warm["caches"], lambda k: "bound_free" in k)
    dim = _layer(wp, "eigensolver.diagonalize", "max_size")
    traced_warm = warm["wall_s"]
    plain_warm = plain["result"]["passes"]["warm"]["wall_s"]
    metrics = {
        "package.import_s": result["import_s"],
        "basis.enumerate_s": _layer(wp, "basis.enumerate"),
        "basis.radial_s": _layer(wp, "basis.radial"),
        "basis.radial_cold_s": _layer(cp, "basis.radial"),
        "basis.radial_calls": _layer(wp, "basis.radial", "calls"),
        "basis.radial_misses": bb_misses,
        "basis.radial_hit_ratio": bb_ratio,
        "specfun.laplace_s": _layer(wp, "specfun.laplace"),
        "specfun.laplace_calls": _layer(wp, "specfun.laplace", "calls"),
        "hamiltonian.assemble_self_s": _layer(wp, "hamiltonian.assemble", "self_s"),
        "hamiltonian.assemble_calls": _layer(wp, "hamiltonian.assemble", "calls"),
        "hamiltonian.matrix_bytes":
            8 * _layer(wp, "hamiltonian.assemble", "max_size") ** 2,
        "eigensolver.diagonalize_s": _layer(wp, "eigensolver.diagonalize"),
        "eigensolver.diagonalize_calls": _layer(wp, "eigensolver.diagonalize", "calls"),
        "eigensolver.dim": dim,
        "eigensolver.first_call_s": _layer(cp, "eigensolver.diagonalize", "first_s"),
        "eigensolver.track_s": _layer(wp, "eigensolver.track"),
        "eigensolver.single_thread_s": statistics.median(probe["diagonalize_s"]),
        "transitions.table_s": _layer(wp, "transitions.table"),
        "ionization.records_self_s": _layer(wp, "ionization.records", "self_s"),
        "ionization.bound_free_calls": _layer(wp, "ionization.bound_free", "calls"),
        "ionization.bf_radial_misses": bf_misses,
        "ionization.bf_radial_hit_ratio": bf_ratio,
        "ionization.open_branches": _layer(wp, "ionization.records", "sum_size"),
        "specfun.appell_f2_s": _layer(wp, "specfun.appell_f2"),
        "specfun.appell_f2_calls": _layer(wp, "specfun.appell_f2", "calls"),
        "specfun.hyp2f1_s": _layer(wp, "specfun.hyp2f1"),
        "specfun.hyp2f1_calls": _layer(wp, "specfun.hyp2f1", "calls"),
        "cli.self_s": _layer(wp, "cli.main", "self_s"),
        "cli.rows": traced["rows"],
        "cli.csv_bytes": traced["csv_bytes"],
        "trace.warm_s": traced_warm,
        "trace.untraced_warm_s": plain_warm,
        "trace.overhead_s": traced_warm - plain_warm,
        "trace.overhead_frac": (traced_warm - plain_warm) / plain_warm,
    }
    shares = {name: entry["self_s"] / traced_warm for name, entry in wp.items()}
    summary = {
        "absent_layers": result["absent_layers"],
        "warm_self_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "untraced_share": 1 - sum(shares.values()),
        "bound_bound_share":
            (metrics["basis.radial_s"] + metrics["hamiltonian.assemble_self_s"])
            / traced_warm,
        "probe_diagonalize_s": probe["diagonalize_s"],
    }
    return metrics, [plain, traced], summary


# --- command line -------------------------------------------------------------


def measure(workload, seed, seconds, trace, deadline):
    rundir = OUT / f"{workload.name}-seed{seed}-trace{trace}-{os.getpid()}"
    if trace:
        metrics, reps, extra = per_layer(workload, seed, rundir, deadline)
        units = PER_LAYER
    else:
        metrics, reps, extra = end_to_end(workload, seed, seconds, rundir, deadline)
        units = END_TO_END
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    messages = [m for r in reps for m in r["messages"]]
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "repetitions": len(reps),
        "inputs": {k: [list(c.argv) for c in v]
                   for k, v in make_inputs(workload, seed).items()},
        "environment": {**environment(),
                        **(reps[0]["result"] or {}).get("environment", {})},
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failures": messages[:50],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "details": extra,
    }
    (rundir / "record.json").write_text(json.dumps(record, indent=1))
    return record


def _print_record(record, prefix=""):
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"reps={record['repetitions']} attempted={record['attempted']} "
          f"failed={record['failed']}")
    env = record["environment"]
    print("#   environment: " + ", ".join(
        f"{k}={env[k]}" for k in ("nproc", "cpu_model", "python", "numpy", "scipy",
                                  "mpmath", "numpy_blas", "git_commit") if k in env)
        + f", BLAS threads {env['blas_thread_env']}")
    for message in record["failures"][:10]:
        print(f"#   gate: {message}")
    for name, m in record["metrics"].items():
        print(f"{prefix}{name} {m['value']:.6g} {m['unit']}")
    details = record["details"]
    if record["trace"]:
        if details["absent_layers"]:
            print("#   absent layers: " + ", ".join(details["absent_layers"]))
        top = list(details["warm_self_share"].items())[:5]
        print("#   warm self-time share: " + ", ".join(
            f"{k} {v:.1%}" for k, v in top)
            + f"; untraced {details['untraced_share']:.1%}"
            + f"; radial+assembly {details['bound_bound_share']:.1%}")


def make_references(seeds):
    """Store each workload's per-point reference outputs for ``seeds``."""
    refs = {}
    for workload in WORKLOADS.values():
        for seed in seeds:
            inputs = make_inputs(workload, seed)
            rundir = OUT / f"references-{workload.name}-{seed}"
            rep = run_repetition(inputs, rundir, 0, time.monotonic() + RUN_LIMIT_S)
            if rep["failed"]:
                raise HarnessError(f"{workload.name} seed {seed}: {rep['messages']}")
            refs.setdefault(workload.name, {})[str(seed)] = {
                name: [{"argv": list(c.argv), "points": _rounded(fp)}
                       for c, fp in zip(calls, rep["fingerprints"][name])]
                for name, calls in inputs.items()
            }
            print(f"# reference {workload.name} seed {seed}", flush=True)
    REFERENCES.write_text(json.dumps(refs, separators=(",", ":")) + "\n")


def _rounded(value):
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --workload all: write all records here")
    parser.add_argument("--make-references", action="store_true",
                        help="regenerate references.json from the program")
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if not (SRC / "laserhydrogen" / "cli.py").is_file():
            raise HarnessError(f"no program at {SRC / 'laserhydrogen'}")
        if args.make_references:
            make_references(REFERENCE_SEEDS)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload != "all":
            record = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                             args.trace, started + RUN_LIMIT_S)
            _print_record(record)
            print(json.dumps({k: record[k] for k in
                              ("correct", "attempted", "failed", "metrics")}))
            return 0
        records = []
        for workload in WORKLOADS.values():
            for trace in (0, 1):
                record = measure(workload, args.seed, args.seconds, trace,
                                 time.monotonic() + RUN_LIMIT_S)
                _print_record(record, prefix=f"{workload.name}/")
                records.append(record)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.record:
        Path(args.record).write_text(json.dumps(records, indent=1) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {f"{r['workload']}/{k}": v
                    for r in records for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
