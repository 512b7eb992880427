"""
Certifying weak pinching and twisting, then repairing a failure
===============================================================

For 2x2 tuples the genericity conditions behind spectrum simplicity are
checkable numerically: pinching asks the fixed-point map for a positive
top exponent, twisting asks the homoclinic holonomy to move the
expanding/contracting directions off themselves.  When twisting fails,
a small explicit perturbation usually restores it; the perturb-search
driver walks a ladder of candidates and keeps the smallest that passes.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

import cocyclelab as cl
from cocyclelab.cli import main

a0 = cl.TrigMatrixMap.constant(np.diag([2.0, 0.5]), group_tag=cl.SL2)
angles = [cl.GOLDEN_MEAN, 0.41421356237309515]

# A0 paired with its eighth-turn rotation: both certificates pass, and the
# minimum projective separation is the hand-computable sin(pi/4).
good = cl.RandomProduct(angles, [a0, cl.right_rotate(a0, 0.125)])
for cert in (cl.weakly_pinching(good, seed=0),
             cl.weakly_twisting(good, seed=0)):
    print(f"{cert.kind:11s} {cert.verdict:4s} margin {cert.margin:+.4f}")
print("min separation:", cl.weakly_twisting(good, seed=0).diagnostics["min_separation"])

# Pair A0 with itself and the holonomy is the identity: twisting fails.
twin = cl.RandomProduct(angles, [a0, a0])
cert = cl.weakly_twisting(twin, seed=0)
print(f"\ntwin tuple: {cert.kind} {cert.verdict}, margin {cert.margin:+.4f}")

# Hand the failing tuple to the search driver through the CLI.
with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)
    cl.save_cocycle(twin, workdir / "twin.json")
    config = workdir / "search.json"
    config.write_text(json.dumps({
        "kind": "perturb-search",
        "cocycle": "twin.json",
        "seed": 0,
        "budget": 0.05,
        "n_candidates": 6,
        "out": str(workdir / "search.csv"),
    }))
    main(["perturb-search", "--config", str(config)])

    table = cl.ResultTable.from_csv(workdir / "search.csv")
print("\ncandidate ladder:")
print("  ", "  ".join(table.columns))
for row in table.rows:
    print("  ", "  ".join(str(cell) for cell in row))
chosen = next(row for row in table.rows if row[5] == 1)
print(f"\nselected: {chosen[1]} perturbation of size {chosen[2]}, "
      f"margin {chosen[4]:+.4f}")
