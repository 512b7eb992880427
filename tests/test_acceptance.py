"""Acceptance gate: one end-to-end check per headline guarantee.

Each test prints a single pass/fail line (visible with pytest -s or -rA)
and asserts the same condition, so the suite doubles as a report.
"""

import json
import math
import time

import numpy as np

import cocyclelab as cl
from cocyclelab.cli import main
from util import (SILVER, axis_pair, pipeline_tuple_d3, random_tuple,
                  schrodinger_pair)


def report(number, label, ok, detail):
    line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {label} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_constant_diagonal_spectrum():
    t0 = time.monotonic()
    mat = cl.TrigMatrixMap.constant(np.diag([2.0, 1.0, 0.5]),
                                    group_tag=cl.DIAGONAL)
    product = cl.RandomProduct([cl.GOLDEN_MEAN], [mat])
    est = cl.estimate_spectrum(product, 2000, 2, seed=0)
    want = np.array([math.log(2.0), 0.0, -math.log(2.0)])
    err = float(np.max(np.abs(est.values - want)))
    elapsed = time.monotonic() - t0
    report(1, "constant diag(2,1,1/2) spectrum within 1e-10",
           err <= 1e-10 and elapsed < 1.0,
           f"max error {err:.2e}, {elapsed:.2f} s")


def test_criterion_02_birkhoff_integral_oracle():
    t0 = time.monotonic()
    mat = cl.TrigMatrixMap(np.array([[2.0]]), np.array([[[1.0]]]),
                           np.array([[[0.0]]]), group_tag=cl.DIAGONAL)
    product = cl.RandomProduct([cl.GOLDEN_MEAN], [mat])
    exact = float(cl.diagonal_spectrum(product)[0])
    mid = (np.arange(1_000_000) + 0.5) / 1_000_000
    oracle = float(np.mean(np.log(2.0 + np.cos(2.0 * np.pi * mid))))
    quad_err = abs(exact - oracle)
    est = cl.estimate_spectrum(product, 100_000, 20, seed=1)
    mc_err = abs(float(est.values[0]) - exact)
    elapsed = time.monotonic() - t0
    report(2, "log(2 + cos) mean matches quadrature and Monte Carlo",
           quad_err <= 1e-8 and mc_err <= 2e-3 and elapsed < 30.0,
           f"quadrature err {quad_err:.2e}, MC err {mc_err:.2e}, {elapsed:.1f} s")


def test_criterion_03_constant_potential_exponent():
    worst = 0.0
    for energy in (2.5, 3.0, 5.0):
        mat = cl.make_schrodinger(cl.TrigPolynomial(energy, [0.0], [0.0]))
        product = cl.RandomProduct([cl.GOLDEN_MEAN], [mat])
        est = cl.estimate_top_exponent(product, 20_000, 8, seed=5)
        want = math.log((abs(energy) + math.sqrt(energy * energy - 4.0)) / 2.0)
        worst = max(worst, abs(est.top - want))
    mat = cl.make_schrodinger(cl.TrigPolynomial(0.0, [0.0], [0.0]))
    product = cl.RandomProduct([cl.GOLDEN_MEAN], [mat])
    est = cl.estimate_top_exponent(product, 20_000, 8, seed=5)
    zero_ok = abs(est.top) <= 3.0 * float(est.stderr[0])
    report(3, "flat-potential exponents match the closed form",
           worst <= 2e-3 and zero_ok,
           f"worst |E|>2 err {worst:.2e}, E=0 estimate {est.top:.1e}")


def test_criterion_04_holonomy_equivalence():
    ts = np.linspace(0.0, 1.0, 1000, endpoint=False)
    worst = 0.0
    for k in range(10):
        product = random_tuple(2 + k % 2, seed=300 + k)
        closed = cl.closed_form_holonomy_many(product, ts)
        for t, want in zip(ts, closed):
            got = cl.composed_holonomy(product, t)
            worst = max(worst, float(np.max(np.abs(got - want))))
    product, (u0, u1) = schrodinger_pair(energy=3.0)
    delta = cl.homoclinic_base_holonomy(product.angles[0], product.angles[1])
    hs = cl.closed_form_holonomy_many(product, ts)
    corner = u1.eval_many(ts) - u0.eval_many(cl.rotate(ts, delta))
    uni = max(float(np.max(np.abs(hs[:, 0, 0] - 1.0))),
              float(np.max(np.abs(hs[:, 1, 1] - 1.0))),
              float(np.max(np.abs(hs[:, 0, 1]))),
              float(np.max(np.abs(hs[:, 1, 0] - corner))))
    report(4, "composed holonomy equals the closed form",
           worst <= 1e-10 and uni <= 1e-12,
           f"loop err {worst:.2e}, unipotent err {uni:.2e}")


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0.0
    for j in range(len(m)):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1.0) ** j * m[0][j] * _cofactor_det(sub)
    return total


def test_criterion_05_minor_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        mat = rng.standard_normal((d, d))
        for index in cl.all_minor_indices(d):
            sub = mat[np.ix_([r - 1 for r in index.rows],
                             [c - 1 for c in index.cols])]
            worst = max(worst,
                        abs(cl.minor(mat, index) - _cofactor_det(sub.tolist())))
    report(5, "minors agree with cofactor expansion",
           worst <= 1e-12, f"worst err {worst:.2e}")


def test_criterion_06_subset_sum_certifier():
    fail = cl.pinching_d([3.0, 2.0, 1.0, 0.0])
    witness = fail.diagnostics["witness"]
    sets = {tuple(witness["first"]), tuple(witness["second"])}
    ok = fail.verdict == "FAIL" and sets == {(1, 4), (2, 3)}
    good = cl.pinching_d([math.log(4.0), math.log(2.0), 0.0])
    ok = ok and good.verdict == "PASS"
    perm = [2, 0, 3, 1]
    ok = ok and cl.pinching_d([[3.0, 2.0, 1.0, 0.0][i] for i in perm]).verdict == "FAIL"
    ok = ok and cl.pinching_d([x + 0.37 for x in (3.0, 2.0, 1.0, 0.0)]).verdict == "FAIL"
    ok = ok and cl.pinching_d([math.log(2.0), math.log(4.0) + 0.0, 0.0][::-1]).verdict == "PASS"
    ok = ok and cl.pinching_d([x - 1.1 for x in (math.log(4.0), math.log(2.0), 0.0)]).verdict == "PASS"
    report(6, "subset-sum verdicts and collision witness",
           ok, f"witness {sorted(sets)}")


def test_criterion_07_log_integrability_oracle():
    result = cl.log_integrability(lambda t: np.sin(2.0 * np.pi * t))
    mid = (np.arange(1_000_000) + 0.5) / 1_000_000
    vals = np.abs(np.sin(2.0 * np.pi * mid))
    keep = vals > 1e-300
    oracle = float(np.mean(np.abs(np.log(vals[keep]))))
    sine_err = abs(result.estimate - oracle)
    flat = cl.log_integrability(lambda t: np.zeros_like(t))
    const = cl.log_integrability(lambda t: np.full_like(t, 3.7))
    ok = (sine_err <= 1e-3 and not flat.finite
          and const.estimate == abs(math.log(3.7)))
    report(7, "log-singularity integral matches the exclusion oracle",
           ok, f"sine err {sine_err:.2e}")


def test_criterion_08_twisting_pipeline_end_to_end():
    t0 = time.monotonic()
    product = pipeline_tuple_d3()
    pinch, twist = cl.certification_pipeline(product, seed=0)
    grid = np.arange(1_000_000) / 1_000_000
    hol = cl.closed_form_holonomy_many(product, grid)
    counts_ok = True
    for entry in twist.diagnostics["minors"]:
        rows = [r - 1 for r in entry["rows"]]
        cols = [c - 1 for c in entry["cols"]]
        sub = hol[:, rows][:, :, cols]
        scan = np.linalg.det(sub) if len(rows) > 1 else sub[:, 0, 0]
        signs = np.sign(scan)
        flips = int(np.sum(signs != np.roll(signs, 1)))
        counts_ok = counts_ok and flips == entry["n_zeros"]
    elapsed = time.monotonic() - t0
    ok = (pinch.kind == "PINCH_D" and pinch.passed
          and twist.kind == "TWIST_D" and twist.passed
          and counts_ok and elapsed < 120.0)
    report(8, "d=3 pipeline passes with sign-scan zero counts",
           ok, f"counts match: {counts_ok}, {elapsed:.1f} s")


def test_criterion_09_weak_twisting_exact_pair():
    cert = cl.weakly_twisting(axis_pair(0.125), seed=3)
    sep_err = abs(cert.diagnostics["min_separation"] - math.sin(math.pi / 4.0))
    a0 = cl.TrigMatrixMap.constant(np.diag([2.0, 0.5]), group_tag=cl.SL2)
    twin = cl.RandomProduct([cl.GOLDEN_MEAN, SILVER], [a0, a0])
    fail = cl.weakly_twisting(twin, seed=3)
    ok = cert.passed and sep_err <= 1e-6 and fail.verdict == "FAIL"
    report(9, "eighth-turn rotation separates by sin(pi/4)",
           ok, f"separation err {sep_err:.2e}, twin verdict {fail.verdict}")


def test_criterion_10_continuity_probe(tmp_path):
    cl.save_cocycle(axis_pair(0.125), tmp_path / "pair.json")
    out = tmp_path / "cont.csv"
    cfg = tmp_path / "cont.json"
    cfg.write_text(json.dumps({
        "kind": "continuity", "cocycle": "pair.json", "seed": 4,
        "n_iter": 4000, "n_rep": 4,
        "epsilons": [1e-1, 1e-2, 1e-3, 1e-4],
        "perturbation": {"coeffs": [[0.0, 0.3, 0.0], [0.1, 0.0, 0.2],
                                    [0.2, 0.1, 0.0], [0.0, 0.0, 0.3]]},
        "out": str(out)}))
    rc = main(["continuity", "--config", str(cfg)])
    table = cl.ResultTable.from_csv(out)
    base_exact = table.rows[0][0] == 0.0 and table.rows[0][3] == 0.0
    ladder = [row[3] for row in table.rows[1:]]
    monotone = all(a >= b for a, b in zip(ladder, ladder[1:]))
    ok = rc == 0 and base_exact and monotone and ladder[-1] < 1e-3
    report(10, "perturbation deviations shrink along the epsilon ladder",
           ok, "deviations " + ", ".join(f"{d:.2e}" for d in ladder))


def test_criterion_11_cli_determinism(tmp_path):
    product, (u0, u1) = schrodinger_pair(energy=3.0)
    cl.save_cocycle(product, tmp_path / "schro.json", potentials=[u0, u1],
                    energy=3.0)
    cl.save_cocycle(axis_pair(0.125), tmp_path / "pair.json")
    a0 = cl.TrigMatrixMap.constant(np.diag([2.0, 0.5]), group_tag=cl.SL2)
    cl.save_cocycle(cl.RandomProduct([cl.GOLDEN_MEAN, SILVER], [a0, a0]),
                    tmp_path / "twin.json")
    fast = {"n_iter": 1500, "n_rep": 2}
    configs = {
        "lyapunov": {"cocycle": "schro.json", "seed": 9, **fast},
        "certify": {"cocycle": "schro.json", "seed": 9},
        "sweep-energy": {"cocycle": "schro.json", "seed": 9, **fast,
                         "energies": {"min": 2.5, "max": 5.0, "steps": 3}},
        "continuity": {"cocycle": "pair.json", "seed": 4, **fast,
                       "certify_base": False, "epsilons": [1e-1, 1e-2],
                       "perturbation": {"coeffs": [[0.0, 0.3, 0.0],
                                                   [0.1, 0.0, 0.2],
                                                   [0.2, 0.1, 0.0],
                                                   [0.0, 0.0, 0.3]]}},
        "perturb-search": {"cocycle": "twin.json", "seed": 4,
                           "budget": 0.05, "n_candidates": 6},
    }
    compared = 0
    identical = True
    for command, doc in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({"kind": command, **doc}))
        runs = []
        for attempt in ("one", "two"):
            out_dir = tmp_path / attempt
            out_dir.mkdir(exist_ok=True)
            out = out_dir / f"{command}.csv"
            rc = main([command, "--config", str(cfg), "--out", str(out)])
            identical = identical and rc == 0
            runs.append(sorted(out_dir.glob(f"{command}*")))
        for first, second in zip(*runs):
            compared += 1
            identical = (identical and first.name == second.name
                         and first.read_bytes() == second.read_bytes())
    report(11, "repeated CLI runs are byte-identical",
           identical and compared >= 7, f"{compared} files compared")
