"""Seeded inputs for the benchmark workloads.

Each workload is a list of operations of one experiment kind; one op is
one CLI-equivalent experiment on a generated tuple file and config.  A run
draws a small pool of distinct inputs from the workload seed and cycles
through it, so repeated inputs check byte-identical output and the median
op time mixes several inputs.

Only numpy is used here: the program under test receives nothing but the
files written by :func:`write_pool`.  Draws whose maps are numerically
singular somewhere on the circle are invalid input (the program rejects
them at load time), so they are redrawn by the rule in
:func:`_invertible`; nothing else about a draw is inspected.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0

POOL_SIZE = 3

# Full-size op parameters; ``tiny`` overrides them for the self-test.
SIZES = {
    "spectrum": {"n_iter": 100_000, "n_rep": 8},
    "sweep": {"n_energies": 11},
    "weak-d2": {},
    "twist-d4": {},
}
TINY = {
    "spectrum": {"n_iter": 2_000, "n_rep": 2},
    "sweep": {"n_energies": 2, "n_iter": 2_000, "n_rep": 2},
    "weak-d2": {"n_samples": 12, "n_pullback": 60, "n_iter": 2_000, "n_rep": 2},
    "twist-d4": {"grid_n": 2048},
}

KINDS = {
    "spectrum": "lyapunov",
    "sweep": "sweep-energy",
    "weak-d2": "certify",
    "twist-d4": "certify",
}

# Invertibility margin on the check grid, ten times the program's floor.
_DET_MARGIN = 1e-9
_CHECK_GRID = 4096


def _rng(seed, *path):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), *path])))


def _entry_rows(const, cos, sin):
    """d*d rows [c0, a1, b1, ..., aK, bK] in row-major entry order."""
    d = const.shape[0]
    rows = []
    for i in range(d):
        for j in range(d):
            row = [float(const[i, j])]
            for m in range(cos.shape[0]):
                row += [float(cos[m, i, j]), float(sin[m, i, j])]
            rows.append(row)
    return rows


def eval_trig(const, cos, sin, ts):
    """Matrix trig polynomial at circle points ts; shape (n, d, d)."""
    out = np.broadcast_to(const, (len(ts),) + const.shape).copy()
    for m in range(cos.shape[0]):
        phase = 2.0 * np.pi * (m + 1) * ts
        out += np.cos(phase)[:, None, None] * cos[m]
        out += np.sin(phase)[:, None, None] * sin[m]
    return out


def _invertible(const, cos, sin):
    grid = np.arange(_CHECK_GRID) / _CHECK_GRID
    return float(np.min(np.abs(np.linalg.det(eval_trig(const, cos, sin, grid))))) > _DET_MARGIN


def _trig_map(rng, d, degree, center, const_scale, coeff_scale):
    while True:
        const = center + const_scale * rng.standard_normal((d, d))
        cos = coeff_scale * rng.standard_normal((degree, d, d))
        sin = coeff_scale * rng.standard_normal((degree, d, d))
        if _invertible(const, cos, sin):
            return const, cos, sin


def _potential_row(rng, degree):
    row = [float(0.3 * rng.standard_normal())]
    for _ in range(degree):
        row += [float(0.4 * rng.standard_normal()), float(0.4 * rng.standard_normal())]
    return row


def _map_spec(tag, const, cos, sin):
    return {"group_tag": tag, "degree": int(cos.shape[0]),
            "coeffs": _entry_rows(const, cos, sin)}


def _cocycle_doc(workload, rng):
    """Tuple definition (cocycle file schema) for one op of the workload."""
    doc = {"k": 1, "angles": [GOLDEN_MEAN, SILVER], "weights": [0.5, 0.5]}
    if workload == "spectrum":
        maps = [_trig_map(rng, 3, 2, 2.0 * np.eye(3), 0.3, 0.1) for _ in range(2)]
        doc.update(d=3, maps=[_map_spec("GENERAL", *m) for m in maps])
    elif workload in ("sweep", "weak-d2"):
        # maps are derived from the potentials: [[E - u_s, -1], [1, 0]]
        doc.update(d=2, potentials=[_potential_row(rng, 2) for _ in range(2)],
                   energy=3.0)
    elif workload == "twist-d4":
        diag = np.diag(np.exp(rng.uniform(-1.5, 1.5, 4)))
        a0 = (diag, np.zeros((0, 4, 4)), np.zeros((0, 4, 4)))
        a1 = _trig_map(rng, 4, 2, np.eye(4), 0.25, 0.12)
        doc.update(d=4, maps=[_map_spec("DIAGONAL", *a0), _map_spec("GENERAL", *a1)])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return doc


def _config_doc(workload, op_seed, tiny):
    size = dict(SIZES[workload], **(TINY[workload] if tiny else {}))
    doc = {"kind": KINDS[workload], "cocycle": "cocycle.json", "seed": op_seed}
    if workload == "spectrum":
        doc.update(parallel=1)
    elif workload == "sweep":
        doc.update(energies={"min": 2.5, "max": 5.0, "steps": size.pop("n_energies")},
                   parallel=min(2, os.cpu_count() or 1))
    doc.update(size)
    return doc


def steps_per_op(workload, config):
    """Sum of n_iter * n_rep over the estimator calls one op makes."""
    n_iter = config.get("n_iter", 20_000)
    n_rep = config.get("n_rep", 8)
    if workload == "spectrum":
        return n_iter * n_rep
    if workload == "sweep":
        return n_iter * n_rep * config["energies"]["steps"]
    if workload == "weak-d2":
        return n_iter * n_rep  # WEAK_PINCH
    return 0


def write_pool(workload, seed, root, tiny=False):
    """Write POOL_SIZE (config, cocycle) pairs under root; return their records."""
    records = []
    for i in range(POOL_SIZE):
        rng = _rng(seed, i)
        op_seed = int(rng.integers(0, 2**31 - 1))
        op_dir = Path(root) / f"input{i}"
        op_dir.mkdir(parents=True)
        cocycle = _cocycle_doc(workload, rng)
        config = _config_doc(workload, op_seed, tiny)
        (op_dir / "cocycle.json").write_text(json.dumps(cocycle, indent=1, sort_keys=True))
        (op_dir / "config.json").write_text(json.dumps(config, indent=1, sort_keys=True))
        records.append({"input": i, "dir": str(op_dir), "config": config,
                        "cocycle": cocycle})
    return records
