"""Correctness gate applied to every point the benchmark computes.

A point fails when any of these holds:

* the CLI call raised or returned a non-zero exit code, or the point is
  listed under ``failed_points`` in the ``.meta.json`` sidecar;
* a W-table row has W outside [0, 1] (``W_RANGE_TOL``), or the written W of
  the point do not sum to 1 within ``W_SUM_TOL``;
* an ionization row has E_f0 <= 0, a non-finite or negative sigma, or
  breaks E_f0 = E_i - mu*omega or eta = (E_i + b)/omega - mu in I/O units
  (``RELATION_TOL``);
* the point differs from the stored reference output for this seed
  (``references.json``, generated from the program at the commit that
  added the benchmark): the largest W of the point within ``REF_W_TOL``
  absolute, every ionization row within ``REF_REL_TOL`` relative.
"""

import csv
import json
import math
from dataclasses import dataclass, field

HARTREE_EV = 27.211386245988   # CODATA 2018
BINDING_HARTREE = 0.5          # hydrogen ground state, infinite nuclear mass
INITIAL = (1, 0, 0)            # the CLI's default initial state

W_RANGE_TOL = 1e-12
W_SUM_TOL = 1e-9
RELATION_TOL = 1e-9
REF_W_TOL = 1e-9
REF_REL_TOL = 1e-6
REF_TOP = 8                    # W entries per point kept in the reference

SPECTRUM_HEADER = [
    "axis_value", "initial_n", "initial_l", "initial_mu",
    "final_n", "final_l", "final_mu", "W", "degenerate_flag",
]
IONIZATION_HEADER = [
    "A_vspm", "omega_eV", "dressed_index", "overlap", "E_i_hartree",
    "mu_branch", "E_f0_eV", "eta", "sigma_pia02",
]


@dataclass
class CallCheck:
    points: int
    failed: set = field(default_factory=set)   # indices into the call's axis
    messages: list = field(default_factory=list)
    fingerprint: list = field(default_factory=list)  # per point, for references

    def fail(self, point, message):
        self.failed.add(point)
        if len(self.messages) < 20:
            self.messages.append(message)

    def fail_all(self, message):
        for i in range(self.points):
            self.fail(i, message)


def _close(a, b, rel, floor=0.0):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def _point_index(axis, value):
    for i, expected in enumerate(axis):
        if _close(value, expected, 1e-12, 1e-300):
            return i
    return None


def check_call(csv_path, call, exit_code, reference=None):
    """Gate one CLI call's CSV and meta; ``reference`` is its stored points."""
    check = CallCheck(points=len(call.axis))
    if exit_code != 0:
        check.fail_all(f"exit code {exit_code}")
    try:
        with open(str(csv_path) + ".meta.json") as fh:
            meta = json.load(fh)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError) as exc:
        check.fail_all(f"unreadable output: {exc}")
        return check
    for entry in meta.get("failed_points", []):
        try:
            i = _point_index(call.axis, float(entry["axis_value"]))
        except (KeyError, TypeError, ValueError):
            i = None
        check.fail(i if i is not None else 0, f"failed point {entry}")
    header = SPECTRUM_HEADER if call.kind == "spectrum" else IONIZATION_HEADER
    if not rows or rows[0] != header:
        check.fail_all(f"bad header {rows[:1]}")
        return check
    groups = [[] for _ in call.axis]
    for row in rows[1:]:
        try:
            i = _point_index(call.axis, float(row[0]))
        except (ValueError, IndexError):
            i = None
        if i is None or len(row) != len(header):
            check.fail_all(f"unexpected row {row}")
            continue
        groups[i].append(row)
    checker = _check_spectrum if call.kind == "spectrum" else _check_ionization
    for i, group in enumerate(groups):
        if not group:
            check.fail(i, f"no rows for axis value {call.axis[i]!r}")
            check.fingerprint.append([])
            continue
        try:
            ref = reference[i] if reference is not None else None
            check.fingerprint.append(checker(check, i, group, call, ref))
        except (ValueError, IndexError) as exc:
            check.fail(i, f"unparsable row at point {i}: {exc}")
            check.fingerprint.append([])
    return check


def _check_spectrum(check, i, rows, call, ref):
    weights = {}
    for row in rows:
        if row[8] == "failed" or int(row[4]) < 1:
            check.fail(i, f"failed row {row}")
            continue
        if tuple(int(v) for v in row[1:4]) != INITIAL:
            check.fail(i, f"wrong initial state {row}")
        n, l, mu = (int(v) for v in row[4:7])
        w = float(row[7])
        if not (0 <= l < n and abs(mu) <= l) or (n, l, mu) in weights:
            check.fail(i, f"bad or repeated final state {row}")
        if not -W_RANGE_TOL <= w <= 1 + W_RANGE_TOL:  # also rejects nan
            check.fail(i, f"W out of [0, 1]: {row}")
        weights[(n, l, mu)] = w
    total = sum(weights.values())
    if not abs(total - 1.0) <= W_SUM_TOL:
        check.fail(i, f"sum W = {total!r} at point {i}")
    if ref is not None:
        for n, l, mu, w_ref in ref:
            w = weights.get((n, l, mu), 0.0)
            if not abs(w - w_ref) <= REF_W_TOL:
                check.fail(i, f"W{(n, l, mu)} = {w!r}, reference {w_ref!r}")
    top = sorted(weights.items(), key=lambda kv: -kv[1])[:REF_TOP]
    return [[*state, w] for state, w in top]


def _check_ionization(check, i, rows, call, ref):
    out = []
    for row in rows:
        if row[8] == "failed" or int(row[2]) < 0:
            check.fail(i, f"failed row {row}")
            continue
        omega_ev, index, overlap, e_i, mu = (
            float(row[1]), int(row[2]), float(row[3]), float(row[4]), int(row[5])
        )
        e_f0, eta, sigma = float(row[6]), float(row[7]), float(row[8])
        if not _close(omega_ev, call.omega_ev, 1e-12):
            check.fail(i, f"omega_eV {omega_ev!r} != {call.omega_ev!r}")
        if not 0 <= overlap <= 1 + W_RANGE_TOL:
            check.fail(i, f"overlap out of [0, 1]: {row}")
        if not e_f0 > 0:
            check.fail(i, f"closed channel written: {row}")
        if not (math.isfinite(sigma) and sigma >= 0):
            check.fail(i, f"bad sigma: {row}")
        e_f0_expected = e_i * HARTREE_EV - mu * omega_ev
        if not _close(e_f0, e_f0_expected, RELATION_TOL, RELATION_TOL):
            check.fail(i, f"E_f0 {e_f0!r} != E_i - mu*omega = {e_f0_expected!r}")
        eta_expected = (e_i + BINDING_HARTREE) * HARTREE_EV / omega_ev - mu
        if not _close(eta, eta_expected, RELATION_TOL, RELATION_TOL):
            check.fail(i, f"eta {eta!r} != (E_i + b)/omega - mu = {eta_expected!r}")
        out.append([index, mu, overlap, e_i, e_f0, eta, sigma])
    out.sort(key=lambda r: r[1])
    if ref is not None:
        if [r[:2] for r in ref] != [r[:2] for r in out]:
            check.fail(i, f"branches {[r[:2] for r in out]} != reference "
                          f"{[r[:2] for r in ref]}")
        else:
            for got, want in zip(out, ref):
                if not all(_close(a, b, REF_REL_TOL, 1e-300)
                           for a, b in zip(got[2:], want[2:])):
                    check.fail(i, f"row {got} != reference {want}")
    return out
