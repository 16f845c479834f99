"""In-memory span tracer wrapped around laserhydrogen's public layer functions.

The tracer lives in the benchmark, not in the program: it resolves each
layer function by its public name, then replaces every reference to that
exact object (found by identity) in the loaded ``laserhydrogen.*`` modules
and in the third-party modules they hold.  A layer the program no longer
has is reported as absent instead of failing the run.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the root), plus a fifth item when the layer's result
carries a size (matrix dimension or record count).  Self time is a span's duration minus the
durations of its direct children.
"""

import functools
import gzip
import json
import sys
import time
import types

PACKAGE = "laserhydrogen"

# (span name, module holding the public name, attribute).  Functions exported
# by the package are looked up on the package itself so that moving them
# between submodules does not lose the layer.
LAYERS = (
    ("cli.main", "laserhydrogen.cli", "main"),
    ("basis.enumerate", PACKAGE, "enumerate_basis"),
    ("basis.radial", PACKAGE, "radial_length_integral"),
    ("specfun.laplace", PACKAGE, "laplace_1f1_product"),
    ("specfun.appell_f2", PACKAGE, "appell_f2"),
    ("specfun.hyp2f1", "mpmath", "hyp2f1"),
    ("specfun.hyp2f1", "scipy.special", "hyp2f1"),
    ("hamiltonian.assemble", PACKAGE, "assemble"),
    ("eigensolver.diagonalize", PACKAGE, "diagonalize"),
    ("eigensolver.track", PACKAGE, "track_state"),
    ("transitions.table", PACKAGE, "transition_table"),
    ("ionization.records", PACKAGE, "ionization_records"),
    ("ionization.bound_free", PACKAGE, "bound_free_element"),
)


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _holders():
    """Package modules plus every module object they reference."""
    mods = _package_modules()
    seen = {id(m) for m in mods}
    for mod in list(mods):
        for value in vars(mod).values():
            if isinstance(value, types.ModuleType) and id(value) not in seen:
                seen.add(id(value))
                mods.append(value)
    return mods


def find_caches():
    """``{"module.name": function}`` for every lru_cache the package defines.

    Call before ``Tracer.install``, which hides the cached functions behind
    wrappers.
    """
    out = {}
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if (callable(getattr(value, "cache_info", None))
                    and getattr(value, "__module__", None) == mod.__name__):
                out[f"{mod.__name__}.{attr}"] = value
    return out


def cache_counts(caches):
    return {name: fn.cache_info()._asdict() for name, fn in caches.items()}


class Tracer:
    """Collects spans while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.present = set()
        self.absent = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            size = _result_size(result)
            if size is not None:
                self.spans[idx].append(size)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every resolvable layer; the rest are listed as absent."""
        holders = _holders()
        hits = {}
        for name, module, attr in LAYERS:
            original = getattr(sys.modules.get(module), attr, None)
            if not callable(original):
                continue
            if id(original) not in hits:
                wrapper = self._wrap(name, original)
                hits[id(original)] = 0
                for mod in holders:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            hits[id(original)] += 1
            if hits[id(original)]:
                self.present.add(name)
        self.absent = sorted({name for name, _, _ in LAYERS} - self.present)

    def dump(self, path, extra):
        record = {"spans": self.spans, "absent": self.absent, **extra}
        with gzip.open(path, "wt") as fh:
            json.dump(record, fh)


def _result_size(result):
    """Matrix dimension or record count carried by a layer's result."""
    dim = getattr(result, "dimension", None)
    if isinstance(dim, int):
        return dim
    if isinstance(result, (list, tuple)):
        return len(result)
    return None


# --- analysis ---------------------------------------------------------------


def profile(spans, root):
    """Per-name totals of the spans under ``root`` (excluded).

    Returns ``{name: {"calls", "incl_s", "self_s", "first_s", "max_size",
    "sum_size"}}``.
    Inclusive time counts only outermost spans of a name, so a recursive
    call is not counted twice.
    """
    inside = _descendants(spans, root)
    child_time = {i: 0.0 for i in inside}
    for i in inside:
        parent = spans[i][3]
        if parent in child_time:
            child_time[parent] += spans[i][2] - spans[i][1]
    out = {}
    for i in inside:
        name, start, end = spans[i][:3]
        entry = out.setdefault(name, {
            "calls": 0, "incl_s": 0.0, "self_s": 0.0, "first_s": end - start,
            "max_size": 0, "sum_size": 0,
        })
        entry["calls"] += 1
        if len(spans[i]) > 4:
            entry["max_size"] = max(entry["max_size"], spans[i][4])
            entry["sum_size"] += spans[i][4]
        entry["self_s"] += (end - start) - child_time[i]
        if not _has_ancestor_named(spans, i, name, root):
            entry["incl_s"] += end - start
    return out


def _descendants(spans, root):
    members = {root}
    out = []
    for i in range(root + 1, len(spans)):
        if spans[i][3] in members:
            members.add(i)
            out.append(i)
    return out


def _has_ancestor_named(spans, i, name, root):
    parent = spans[i][3]
    while parent != -1 and parent != root:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
