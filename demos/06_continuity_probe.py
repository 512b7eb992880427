"""
Probing continuity of the exponents under perturbation
======================================================

Certified tuples should respond tamely to small perturbations of one map:
shrink the perturbation by a factor of ten and the spectrum deviation
shrinks along with it.  The continuity driver estimates the spectrum of
A_1 + eps B along an epsilon ladder with a shared seed, so the deviations
isolate the perturbation instead of the sampling noise.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

import cocyclelab as cl
from cocyclelab.cli import main

a0 = cl.TrigMatrixMap.constant(np.diag([2.0, 0.5]), group_tag=cl.SL2)
product = cl.RandomProduct([cl.GOLDEN_MEAN, 0.41421356237309515],
                           [a0, cl.right_rotate(a0, 0.125)])

with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)
    cl.save_cocycle(product, workdir / "pair.json")

    # the direction B is given by raw coefficient rows, one row per matrix
    # entry: constant term, then cos and sin coefficients per mode
    config = workdir / "continuity.json"
    config.write_text(json.dumps({
        "kind": "continuity",
        "cocycle": "pair.json",
        "seed": 4,
        "n_iter": 20000,
        "n_rep": 6,
        "epsilons": [1e-1, 1e-2, 1e-3, 1e-4],
        "perturbation": {"coeffs": [[0.0, 0.3, 0.0],
                                    [0.1, 0.0, 0.2],
                                    [0.2, 0.1, 0.0],
                                    [0.0, 0.0, 0.3]]},
        "out": str(workdir / "continuity.csv"),
    }))
    main(["continuity", "--config", str(config)])

    table = cl.ResultTable.from_csv(workdir / "continuity.csv")
print("epsilon     lambda_1    deviation   certified")
for eps, lam1, lam2, dev, certified in table.rows:
    print(f"{eps:8.0e}   {lam1:+.6f}   {dev:.3e}   {certified}")

ladder = [row[3] for row in table.rows[1:]]
ratios = [a / b for a, b in zip(ladder, ladder[1:])]
print("\nconsecutive deviation ratios:", [round(r, 1) for r in ratios])
print("roughly factor-10 steps mirror the epsilon ladder")
