"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC holds ``cold`` and ``warm`` lists of CLI argument lists, ``trace``
(bool), and ``result``/``trace_path`` output paths.  The repetition imports
the package, runs the cold pass, then the warm pass, each through
``laserhydrogen.cli.main``, and writes its timings as JSON to ``result``.
With ``trace`` the layer functions are wrapped (see ``spans.py``) after
the import, and the per-layer profile of each pass is added to the result.

With ``probe`` in place of the passes it times ``diagonalize`` of one
assembled matrix, repeated, for the BLAS thread-count baseline.
"""

import importlib
import json
import platform
import resource
import sys
import time

import spans


def _run_pass(cli, argvs, tracer, name):
    root = tracer.open("pass." + name) if tracer else None
    codes, errors = [], []
    start = time.perf_counter()
    for argv in argvs:
        try:
            codes.append(cli.main(list(argv)))
        except Exception as exc:  # the gate counts the call's points as failed
            codes.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    if tracer:
        tracer.close(root)
    return {"wall_s": wall, "codes": codes, "errors": errors}, root


def _summarize(tracer, result, roots, caches_before, caches_after):
    """Per-pass layer profile and cache counter deltas."""
    for name, p in result["passes"].items():
        p["profile"] = spans.profile(tracer.spans, roots[name])
        before, after = caches_before[name], caches_after[name]
        p["caches"] = {
            key: {k: after[key][k] - before[key][k] for k in ("hits", "misses")}
            for key in after
        }
    result["absent_layers"] = tracer.absent


def environment():
    import mpmath
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            env[f"{mod.__name__}_blas"] = f"{blas['name']} {blas.get('version', '')}"
        except Exception:  # show_config layout differs between versions
            env[f"{mod.__name__}_blas"] = "unknown"
    return env


def probe(spec):
    lh = importlib.import_module("laserhydrogen")
    n0, amp_vspm, omega_ev = spec["probe"]
    units = lh.UnitSystem()
    laser = lh.LaserField(units.vector_potential_to_internal(amp_vspm),
                          units.ev_to_internal(omega_ev))
    matrix = lh.assemble(lh.enumerate_basis(n0), laser)
    times = []
    for _ in range(spec["repeats"]):
        start = time.perf_counter()
        lh.diagonalize(matrix)
        times.append(time.perf_counter() - start)
    return {"diagonalize_s": times}


def main(path):
    with open(path) as fh:
        spec = json.load(fh)
    if "probe" in spec:
        result = probe(spec)
    else:
        tracer = spans.Tracer() if spec["trace"] else None
        start = time.perf_counter()
        cli = importlib.import_module("laserhydrogen.cli")
        result = {"import_s": time.perf_counter() - start, "passes": {}}
        if tracer:
            caches = spans.find_caches()
            tracer.install()
            roots, before, after = {}, {}, {}
        for name in ("cold", "warm"):
            if tracer:
                before[name] = spans.cache_counts(caches)
            result["passes"][name], root = _run_pass(cli, spec[name], tracer, name)
            if tracer:
                roots[name] = root
                after[name] = spans.cache_counts(caches)
        if tracer:
            _summarize(tracer, result, roots, before, after)
            tracer.dump(spec["trace_path"], {"caches": {
                name: p["caches"] for name, p in result["passes"].items()}})
        result["environment"] = environment()
        result["package_file"] = sys.modules["laserhydrogen"].__file__
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
