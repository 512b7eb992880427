"""Output checks of the benchmark ops, run after the timed child has ended.

Every check reads only the files an op wrote and the generated input, and
recomputes its oracle with numpy alone:

* ``spectrum``: exponents finite and sorted; their sum equals the weighted
  circle mean of log |det| within four times the summed replicate errors.
* ``sweep``: one row per energy of the grid; lambda_top finite and at least
  -3 stderr (SL2 exponents are non-negative).
* certificates: CSV rows match the JSON files; PASS carries margin >= 0,
  FAIL a witness; WEAK_TWIST reports converged_fraction in [0, 1]; PINCH_D
  reports the spread of the exact diagonal exponents.
* ``twist-d4``: every minor's ``n_zeros`` equals the number of sign changes
  of that minor of the closed-form holonomy on a grid 16 times finer than
  the certifier's scan grid.

Ops of one input must also write byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

from gen import eval_trig

SIGN_SCAN_REFINE = 16
_SCAN_CHUNK = 1 << 14
_SUM_RULE_GRID = 4096

EXPECTED_CERTS = {"weak-d2": ["WEAK_PINCH", "WEAK_TWIST"], "twist-d4": ["PINCH_D", "TWIST_D"]}


def read_table(path):
    """Columns and string rows of a result CSV (provenance lines skipped)."""
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _map_arrays(doc, s):
    d = doc["d"]
    rows = np.asarray(doc["maps"][s]["coeffs"], dtype=float)
    k = (rows.shape[1] - 1) // 2
    const = rows[:, 0].reshape(d, d)
    cos = rows[:, 1::2].T.reshape(k, d, d)
    sin = rows[:, 2::2].T.reshape(k, d, d)
    return const, cos, sin


def mean_log_abs_det(doc):
    """sum_s weight_s * circle mean of log |det A_s| (uniform grid, spectral)."""
    ts = np.arange(_SUM_RULE_GRID) / _SUM_RULE_GRID
    return sum(w * float(np.mean(np.log(np.abs(np.linalg.det(
        eval_trig(*_map_arrays(doc, s), ts))))))
        for s, w in enumerate(doc["weights"]))


def _minors(entries, rows, cols):
    """Minor over a grid from entry arrays entries[i, j] (cofactors of row 0)."""
    if len(rows) == 1:
        return entries[rows[0], cols[0]]
    total = 0.0
    for j, c in enumerate(cols):
        rest = cols[:j] + cols[j + 1:]
        total = total + (-1) ** j * entries[rows[0], c] * _minors(entries, rows[1:], rest)
    return total


def sign_flips(doc, grid_n):
    """Sign changes of every holonomy minor over a uniform circle grid."""
    d = doc["d"]
    offset = (doc["angles"][1] - doc["angles"][0]) % 1.0
    a0 = _map_arrays(doc, 0)
    a1 = _map_arrays(doc, 1)
    keys = [(rows, cols) for size in range(1, d + 1)
            for rows in combinations(range(d), size)
            for cols in combinations(range(d), size)]
    flips = dict.fromkeys(keys, 0)
    first = {}
    last = {}
    for start in range(0, grid_n, _SCAN_CHUNK):
        ts = np.arange(start, min(start + _SCAN_CHUNK, grid_n)) / grid_n
        hol = np.linalg.solve(eval_trig(*a0, (ts + offset) % 1.0), eval_trig(*a1, ts))
        entries = np.ascontiguousarray(hol.transpose(1, 2, 0))
        for key in keys:
            rows, cols = key
            signs = np.sign(_minors(entries, rows, cols))
            flips[key] += int(np.count_nonzero(signs[1:] != signs[:-1]))
            if key in last:
                flips[key] += int(last[key] != signs[0])
            else:
                first[key] = signs[0]
            last[key] = signs[-1]
    return {(tuple(r + 1 for r in rows), tuple(c + 1 for c in cols)):
            n + int(last[(rows, cols)] != first[(rows, cols)])
            for (rows, cols), n in flips.items()}


class Checker:
    """Checks ops of one workload; caches the per-input oracles."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self._oracles = {}
        self.digests = {}

    def _oracle(self, index):
        if index not in self._oracles:
            doc = self.inputs[index]["cocycle"]
            if self.workload == "spectrum":
                self._oracles[index] = mean_log_abs_det(doc)
            elif self.workload == "twist-d4":
                grid_n = self.inputs[index]["config"].get("grid_n", 1 << 14)
                self._oracles[index] = sign_flips(doc, SIGN_SCAN_REFINE * grid_n)
        return self._oracles.get(index)

    def check(self, op):
        """Problems found in one op's outputs (empty when it passes)."""
        if "error" in op:
            return [f"raised {op['error']}"]
        paths = [Path(p) for p in op["outputs"]]
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
        problems = []
        seen = self.digests.setdefault(op["input"], digests)
        if seen != digests:
            problems.append(f"outputs differ from an earlier op on input {op['input']}")
        rec = self.inputs[op["input"]]
        try:
            cols, rows = read_table(paths[0])
            if self.workload == "spectrum":
                problems += self._spectrum(cols, rows, rec)
            elif self.workload == "sweep":
                problems += self._sweep(cols, rows, rec)
            else:
                problems += self._certificates(cols, rows, paths, op["input"])
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"malformed output: {type(exc).__name__}: {exc}")
        return problems

    def _spectrum(self, cols, rows, rec):
        d = rec["cocycle"]["d"]
        (row,) = rows
        vals = [float(row[cols.index(f"lambda_{i}")]) for i in range(1, d + 1)]
        errs = [float(row[cols.index(f"stderr_{i}")]) for i in range(1, d + 1)]
        problems = []
        if not all(math.isfinite(v) for v in vals + errs):
            problems.append(f"non-finite exponents {vals} / {errs}")
        if any(b > a for a, b in zip(vals, vals[1:])):
            problems.append(f"exponents not sorted: {vals}")
        oracle = self._oracle(rec["input"])
        tol = 4.0 * sum(errs) + 1e-9
        if not abs(sum(vals) - oracle) <= tol:
            problems.append(f"sum of exponents {sum(vals)!r} is off the log|det| "
                            f"mean {oracle!r} by more than {tol!r}")
        return problems

    def _sweep(self, cols, rows, rec):
        spec = rec["config"]["energies"]
        grid = np.linspace(spec["min"], spec["max"], spec["steps"])
        problems = []
        if [float(r[cols.index("energy")]) for r in rows] != grid.tolist():
            problems.append("energy column does not match the configured grid")
        for r in rows:
            lam = float(r[cols.index("lambda_top")])
            err = float(r[cols.index("stderr")])
            if not (math.isfinite(lam) and math.isfinite(err) and err >= 0.0
                    and lam >= -3.0 * err):
                problems.append(f"energy {r[0]}: lambda_top {lam!r}, stderr {err!r}")
        return problems

    def _certificates(self, cols, rows, paths, index):
        problems = []
        kinds = [r[cols.index("kind")] for r in rows]
        if kinds != EXPECTED_CERTS[self.workload]:
            return [f"certificate kinds {kinds}"]
        docs = [json.loads(p.read_text()) for p in paths[1:]]
        docs = {doc["kind"]: doc for doc in docs}
        for r in rows:
            kind, verdict, margin = r[0], r[1], float(r[2])
            doc = docs.get(kind)
            if doc is None:
                problems.append(f"{kind}: no JSON certificate written")
                continue
            diag = doc["diagnostics"]
            if (doc["verdict"], doc["margin"]) != (verdict, margin):
                problems.append(f"{kind}: CSV row disagrees with the JSON file")
            if verdict == "PASS" and not margin >= 0.0:
                problems.append(f"{kind}: PASS with margin {margin}")
            if verdict == "FAIL" and not (diag.get("witness") or diag.get("witnesses")):
                problems.append(f"{kind}: FAIL without a witness")
            if kind == "WEAK_TWIST" and not 0.0 <= diag.get("converged_fraction", -1) <= 1.0:
                problems.append("WEAK_TWIST: converged_fraction missing or out of range")
            if kind == "PINCH_D":
                logs = np.log(np.abs(np.diagonal(_map_arrays(
                    self.inputs[index]["cocycle"], 0)[0])))
                spread = float(logs.max() - logs.min())
                if not abs(diag.get("spread", math.nan) - spread) <= 1e-9 * spread:
                    problems.append(f"PINCH_D: spread {diag.get('spread')} != {spread}")
            if kind == "TWIST_D":
                problems += self._zero_counts(diag["minors"], index)
        return problems

    def _zero_counts(self, minors, index):
        oracle = self._oracle(index)
        if len(minors) != len(oracle):
            return [f"TWIST_D: {len(minors)} minors, expected {len(oracle)}"]
        problems = []
        for m in minors:
            expected = oracle[(tuple(m["rows"]), tuple(m["cols"]))]
            if m["n_zeros"] != expected:
                problems.append(f"TWIST_D minor {m['rows']}x{m['cols']}: n_zeros "
                                f"{m['n_zeros']}, sign scan {expected}")
        return problems
