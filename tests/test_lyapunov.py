import math
import tracemalloc

import numpy as np
import pytest

import cocyclelab as cl
from cocyclelab import lyapunov
from util import SILVER, random_tuple, schrodinger_pair

LOG2 = math.log(2.0)


def constant_diag(values):
    m = cl.TrigMatrixMap.constant(np.diag(values), group_tag=cl.DIAGONAL)
    return cl.RandomProduct([cl.GOLDEN_MEAN], [m])


def test_constant_diagonal_spectrum_exact():
    est = cl.estimate_spectrum(constant_diag([2.0, 1.0, 0.5]), 3000, 4, seed=0)
    assert np.max(np.abs(est.values - [LOG2, 0.0, -LOG2])) <= 1e-10
    assert np.all(est.stderr <= 1e-12)
    assert est.values[0] == est.top


def test_estimate_is_sorted_and_validated():
    est = cl.estimate_spectrum(random_tuple(3, seed=1), 2000, 3, seed=5)
    assert np.all(np.diff(est.values) <= 1e-12)
    with pytest.raises(ValueError):
        cl.LyapunovEstimate(values=np.array([0.0, 1.0]), stderr=np.zeros(2),
                            n_iter=10, n_rep=1, seed=0,
                            replicates=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        cl.LyapunovEstimate(values=np.array([1.0, 0.0]), stderr=np.array([-1.0, 0.0]),
                            n_iter=10, n_rep=1, seed=0,
                            replicates=np.zeros((1, 2)))


def test_seed_determinism_and_worker_merge():
    rp = random_tuple(2, seed=2)
    a = cl.estimate_spectrum(rp, 1500, 4, seed=11)
    b = cl.estimate_spectrum(rp, 1500, 4, seed=11)
    d = cl.estimate_spectrum(rp, 1500, 4, seed=12)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.replicates, b.replicates)
    assert not np.array_equal(a.values, d.values)


def test_scale_equivariance():
    rp = random_tuple(2, seed=3)
    scaled = cl.RandomProduct(rp.angles, [3.0 * m for m in rp.maps], rp.weights)
    base = cl.estimate_spectrum(rp, 2000, 3, seed=7)
    shifted = cl.estimate_spectrum(scaled, 2000, 3, seed=7)
    assert np.max(np.abs(shifted.values - base.values - math.log(3.0))) <= 1e-10


def test_diagonal_spectrum_birkhoff_oracle():
    # one-dimensional a(t) = 2 + cos(2 pi t): mean of log a is log((2+sqrt 3)/2)
    m = cl.TrigMatrixMap.from_rows((1, 1), [[2.0, 1.0, 0.0]], group_tag=cl.DIAGONAL)
    rp = cl.RandomProduct([cl.GOLDEN_MEAN], [m])
    spec = cl.diagonal_spectrum(rp)
    assert abs(spec[0] - 0.6238107163648714) <= 1e-12
    with pytest.raises(cl.GroupTagError):
        cl.diagonal_spectrum(random_tuple(2, seed=4))


def test_monte_carlo_agrees_with_diagonal_route():
    rng_rows = [[2.4, 0.7, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.9, 0.0, 0.25]]
    m0 = cl.TrigMatrixMap.from_rows((2, 2), rng_rows, group_tag=cl.DIAGONAL)
    m1 = cl.rescale_diagonal(m0, [1.5, 0.5])
    rp = cl.RandomProduct([cl.GOLDEN_MEAN, SILVER], [m0, m1])
    exact = cl.diagonal_spectrum(rp)
    est = cl.estimate_spectrum(rp, 40_000, 8, seed=3)
    assert np.max(np.abs(est.values - exact)) <= 3.0 * np.max(est.stderr) + 2e-3


def test_sum_rule_against_log_det_integral():
    rp = random_tuple(2, seed=6)
    est = cl.estimate_spectrum(rp, 40_000, 8, seed=9)
    expected = cl.mean_log_abs_det(rp)
    assert abs(float(np.sum(est.values)) - expected) <= 3.0 * float(np.sum(est.stderr)) + 2e-3


def test_sl2_exponents_cancel():
    product, _ = schrodinger_pair(energy=3.0)
    est = cl.estimate_spectrum(product, 20_000, 6, seed=4)
    assert abs(est.values[0] + est.values[1]) <= 3.0 * float(np.sum(est.stderr)) + 1e-6


def test_top_exponent_matches_spectrum_head():
    product, _ = schrodinger_pair(energy=3.0)
    full = cl.estimate_spectrum(product, 20_000, 6, seed=8)
    top = cl.estimate_top_exponent(product, 20_000, 6, seed=8)
    assert abs(top.top - full.values[0]) <= 3.0 * (top.stderr[0] + full.stderr[0]) + 1e-3
    product = random_tuple(3, seed=1)
    full = cl.estimate_spectrum(product, 20_000, 6, seed=8)
    top = cl.estimate_top_exponent(product, 20_000, 6, seed=8)
    assert abs(top.top - full.values[0]) <= 3.0 * (top.stderr[0] + full.stderr[0])


def test_qr_period_invariance_constant_tuple():
    rp = constant_diag([3.0, 0.25])
    fine = cl.estimate_spectrum(rp, 1000, 2, seed=2, qr_period=1)
    coarse = cl.estimate_spectrum(rp, 1000, 2, seed=2, qr_period=25)
    assert np.max(np.abs(fine.values - coarse.values)) <= 1e-12


def test_overflow_raises_renormalization_error():
    rp = constant_diag([1e12, 1.0])
    with pytest.raises(cl.RenormalizationError):
        cl.estimate_spectrum(rp, 600, 1, seed=0, qr_period=600)


def test_top_exponent_overflow_raises_renormalization_error():
    rp = constant_diag([1e12, 1.0])
    with pytest.raises(cl.RenormalizationError, match="overflowed or vanished"):
        cl.estimate_top_exponent(rp, 600, 2, seed=0, qr_period=600)


def test_single_replicate_has_zero_stderr():
    est = cl.estimate_spectrum(random_tuple(2, seed=8), 500, 1, seed=1)
    assert np.all(est.stderr == 0.0)


def test_knob_validation():
    rp = constant_diag([2.0, 0.5])
    with pytest.raises(ValueError):
        cl.estimate_spectrum(rp, 0, 1, seed=0)
    with pytest.raises(ValueError):
        cl.estimate_spectrum(rp, 10, 0, seed=0)
    with pytest.raises(ValueError):
        cl.estimate_spectrum(rp, 10, 1, seed=0, qr_period=0)


# Replicate values of the per-replicate estimators that the lockstep kernel
# replaced, as float.hex literals: the kernel must reproduce them bit for bit.
GOLDEN_REPLICATES = [
    ("estimate_spectrum", lambda: random_tuple(3, seed=1), 1013, 3, 5, 20, [
        ["0x1.9f3e99959b638p-1", "0x1.94842308d7a15p-1", "0x1.3d9420a45dc39p-1"],
        ["0x1.9c0e099b7393fp-1", "0x1.96d5db3c0d106p-1", "0x1.3e78d70e19e27p-1"],
        ["0x1.9f0d003cbfd44p-1", "0x1.95852685af90fp-1", "0x1.3e431a9b71191p-1"],
    ]),
    ("estimate_spectrum", lambda: random_tuple(3, seed=1), 7, 2, 6, 20, [
        ["0x1.a466d1d8e50edp-1", "0x1.8bb34fb379409p-1", "0x1.4c30f0ff6f34bp-1"],
        ["0x1.b8742d5641acbp-1", "0x1.8096ae5059fc7p-1", "0x1.3a98b8daf42c2p-1"],
    ]),
    ("estimate_spectrum", lambda: random_tuple(2, seed=3), 2000, 2, 7, 3, [
        ["0x1.9d0418b267896p-1", "0x1.3fd1719ee0d71p-1"],
        ["0x1.9e3363410f9e8p-1", "0x1.41f618006f6a1p-1"],
    ]),
    ("estimate_top_exponent", lambda: schrodinger_pair(3.0)[0], 1013, 3, 5, 20, [
        ["0x1.c69d0bef31d11p-1"],
        ["0x1.c76a81e52acd0p-1"],
        ["0x1.c94b502a3a3bcp-1"],
    ]),
    ("estimate_top_exponent", lambda: schrodinger_pair(3.0)[0], 7, 2, 6, 20, [
        ["0x1.df14c96bfcc95p-1"],
        ["0x1.c0a25275da3f6p-1"],
    ]),
    ("estimate_top_exponent", lambda: schrodinger_pair(2.5)[0], 2000, 2, 7, 3, [
        ["0x1.27a9d16817f1ep-1"],
        ["0x1.242490907e942p-1"],
    ]),
]


@pytest.mark.parametrize(
    "estimator, make_product, n_iter, n_rep, seed, qr_period, golden",
    GOLDEN_REPLICATES,
    ids=[f"{c[0]}-{c[2]}x{c[3]}-period{c[5]}" for c in GOLDEN_REPLICATES])
def test_replicates_match_golden_bits(estimator, make_product, n_iter, n_rep, seed,
                                      qr_period, golden):
    est = getattr(cl, estimator)(make_product(), n_iter, n_rep, seed, qr_period=qr_period)
    expected = np.array([[float.fromhex(x) for x in row] for row in golden])
    assert np.array_equal(est.replicates, expected)


def test_golden_cases_cover_chunk_edges():
    sizes = {(n_iter, qr_period) for _, _, n_iter, _, _, qr_period, _ in GOLDEN_REPLICATES}
    chunk = lyapunov.CHUNK_BLOCKS
    assert any(n_iter % p for n_iter, p in sizes)
    assert any(n_iter < p for n_iter, p in sizes)
    assert any(n_iter > 2 * chunk * p and n_iter % (chunk * p) for n_iter, p in sizes)


def test_step_stack_memory_is_bounded():
    # the full step-matrix stack of this run would take n_iter * d^2 * 8 bytes
    rp = random_tuple(4, seed=5)
    n_iter = 200_000
    cl.estimate_spectrum(rp, 2_000, 1, seed=0)  # keep one-time allocations out
    tracemalloc.start()
    try:
        cl.estimate_spectrum(rp, n_iter, 1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_iter * rp.dim ** 2 * 8
