import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab as cl
from cocyclelab import certify, lyapunov
from util import (SILVER, draw_replicates_reference, qr_step_reference, random_tuple,
                  schrodinger_pair, step_matrices_reference)

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
                            replicates=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        cl.LyapunovEstimate(values=np.array([1.0, 0.0]), stderr=np.array([-1.0, 0.0]),
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


def test_qr_period_invariance_constant_tuple(monkeypatch):
    rp = constant_diag([3.0, 0.25])
    monkeypatch.setattr(lyapunov, "START_PERIOD", 1)
    fine = cl.estimate_spectrum(rp, 1000, 2, seed=2)
    monkeypatch.setattr(lyapunov, "START_PERIOD", 25)
    coarse = cl.estimate_spectrum(rp, 1000, 2, seed=2)
    assert np.max(np.abs(fine.values - coarse.values)) <= 1e-12


def _block_periods(monkeypatch):
    """The period of every chunk walk the kernel makes, in order."""
    periods = []
    block_products = lyapunov._block_products

    def recording(mats, period):
        periods.append(period)
        return block_products(mats, period)

    monkeypatch.setattr(lyapunov, "_block_products", recording)
    return periods


def test_overflow_halves_the_period(monkeypatch):
    # 20 steps of 1e20 overflow; blocks of 10 hold 1e200
    periods = _block_periods(monkeypatch)
    est = cl.estimate_spectrum(constant_diag([1e20, 1.0]), 600, 1, seed=0)
    assert periods == [20, 10]
    assert np.max(np.abs(est.values - [math.log(1e20), 0.0])) <= 1e-12


def test_overflow_inside_the_block_loop_halves_without_a_warning():
    # NaN entries of the multiplied-out blocks reach the frame-image matmul;
    # its warning must not pre-empt the redo (RuntimeWarnings are errors here)
    est = cl.estimate_spectrum(constant_diag([1e20, 1.0]), 3000, 2, seed=0)
    assert np.max(np.abs(est.values - [math.log(1e20), 0.0])) <= 1e-12


def test_underflow_halves_the_period(monkeypatch):
    # 20 steps of 1e-20 underflow to zero; blocks of 10 hold 1e-200
    periods = _block_periods(monkeypatch)
    est = cl.estimate_spectrum(constant_diag([1e-20, 1.0]), 600, 2, seed=0)
    assert periods == [20, 10]
    assert np.max(np.abs(est.values - [0.0, math.log(1e-20)])) <= 1e-12


def test_top_exponent_overflow_halves_the_period(monkeypatch):
    # the squared norm overflows past 1e154: blocks of 5 steps.  The same
    # start vectors through diag(1, 1e-20), which stays at 20, give the
    # value less log 1e20
    periods = _block_periods(monkeypatch)
    est = cl.estimate_top_exponent(constant_diag([1e20, 1.0]), 600, 2, seed=0)
    assert periods == [20, 10, 5]
    base = cl.estimate_top_exponent(constant_diag([1.0, 1e-20]), 600, 2, seed=0)
    assert periods == [20, 10, 5, 20]
    assert abs(est.top - base.top - math.log(1e20)) <= 1e-12


def test_one_step_overflow_raises_renormalization_error():
    # a single step of 1e200 keeps the frame finite, but squares past the
    # float range on the vector route
    rp = constant_diag([1e200, 1.0])
    est = cl.estimate_spectrum(rp, 50, 1, seed=0)
    assert np.max(np.abs(est.values - [math.log(1e200), 0.0])) <= 1e-12
    with pytest.raises(cl.RenormalizationError, match="within one step"):
        cl.estimate_top_exponent(rp, 50, 1, seed=0)


def conjugated_constant(a):
    """Two equal constant maps C diag(e^a, 1, e^-a) C^-1: exact spectrum (a, 0, -a)."""
    c = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    m = cl.TrigMatrixMap.constant(c @ np.diag([math.exp(a), 1.0, math.exp(-a)])
                                  @ np.linalg.inv(c))
    return cl.RandomProduct([cl.GOLDEN_MEAN, SILVER], [m, m])


@pytest.mark.parametrize("a", [1.5, 1.7, 1.9, 2.0, 3.0])
def test_widely_spread_spectrum_keeps_its_lower_exponents(a):
    # at 20 steps per block the middle column sits e^(-20 a) below the top
    # one, near the float precision (e^-36) from a = 1.7: lambda_2 read
    # 0.0025 there and 0.06 at a = 2
    est = cl.estimate_spectrum(conjugated_constant(a), 20_000, 4, seed=0)
    assert abs(est.values[1]) <= 5e-5
    assert abs(est.values[2] + a) <= 5e-5


def test_spread_redo_pads_no_block_to_identity(monkeypatch):
    # a = 3 spreads 60 at 20 steps and 30 at 10: the first chunk is walked
    # at 20, 10 and 5, each padded to whole blocks only, and 5 holds after
    chunk = lyapunov.CHUNK_BLOCKS * lyapunov.START_PERIOD
    calls = _count_qr_calls(monkeypatch)
    cl.estimate_spectrum(conjugated_constant(3.0), 2 * chunk + 13, 2, seed=0)
    assert len(calls) == chunk // 20 + chunk // 10 + chunk // 5 + chunk // 5 + 3
    # every halving divides the start period, so a redone chunk fits the
    # step-matrix buffer sized for it
    assert all(lyapunov.START_PERIOD % (lyapunov.START_PERIOD >> k) == 0
               for k in range(lyapunov.START_PERIOD.bit_length()))


@pytest.mark.parametrize("scale", [1e10, 1e-20])
@pytest.mark.parametrize("estimator", ["estimate_spectrum", "estimate_top_exponent"])
def test_map_scale_shifts_the_exponents(estimator, scale):
    # 20 steps of the scaled maps leave the float range, or the half of it
    # that a squared norm holds
    rp = random_tuple(3, seed=1)
    scaled = cl.RandomProduct(rp.angles, [scale * m for m in rp.maps], rp.weights)
    base = getattr(cl, estimator)(rp, 2000, 2, seed=0)
    shifted = getattr(cl, estimator)(scaled, 2000, 2, seed=0)
    assert np.max(np.abs(shifted.replicates - base.replicates - math.log(scale))) <= 1e-12


def test_single_replicate_has_zero_stderr():
    est = cl.estimate_spectrum(random_tuple(2, seed=8), 500, 1, seed=1)
    assert np.all(est.stderr == 0.0)


def test_knob_validation():
    rp = constant_diag([2.0, 0.5])
    with pytest.raises(ValueError):
        cl.estimate_spectrum(rp, 0, 1, seed=0)
    with pytest.raises(ValueError):
        cl.estimate_spectrum(rp, 10, 0, seed=0)
    # the period is set by the kernel, not by the caller
    with pytest.raises(TypeError):
        cl.estimate_spectrum(rp, 10, 1, seed=0, qr_period=5)
    with pytest.raises(TypeError):
        cl.estimate_top_exponent(rp, 10, 1, seed=0, qr_period=5)


# Replicate values of the per-replicate estimators that the lockstep kernel
# replaced, as float.hex literals: the kernel must reproduce them bit for bit.
# The last column of the d = 3 spectrum cases is the exponent pinned by the
# step determinants; it was re-pinned when those moved from LU to the
# cofactor kernel (see LU_PIN_LAST_COLUMN).
GOLDEN_REPLICATES = [
    ("estimate_spectrum", lambda: random_tuple(3, seed=1), 1013, 3, 5, 20, [
        ["0x1.9f3e99959b638p-1", "0x1.94842308d7a15p-1", "0x1.3d9420a45dc39p-1"],
        ["0x1.9c0e099b7393fp-1", "0x1.96d5db3c0d106p-1", "0x1.3e78d70e19e29p-1"],
        ["0x1.9f0d003cbfd44p-1", "0x1.95852685af90fp-1", "0x1.3e431a9b71191p-1"],
    ]),
    ("estimate_spectrum", lambda: random_tuple(3, seed=1), 7, 2, 6, 20, [
        ["0x1.a466d1d8e50edp-1", "0x1.8bb34fb379409p-1", "0x1.4c30f0ff6f34bp-1"],
        ["0x1.b8742d5641acbp-1", "0x1.8096ae5059fc7p-1", "0x1.3a98b8daf42c0p-1"],
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
    "estimator, make_product, n_iter, n_rep, seed, start_period, golden",
    GOLDEN_REPLICATES,
    ids=[f"{c[0]}-{c[2]}x{c[3]}-period{c[5]}" for c in GOLDEN_REPLICATES])
def test_replicates_match_golden_bits(monkeypatch, estimator, make_product, n_iter, n_rep,
                                      seed, start_period, golden):
    monkeypatch.setattr(lyapunov, "START_PERIOD", start_period)
    est = getattr(cl, estimator)(make_product(), n_iter, n_rep, seed)
    expected = np.array([[float.fromhex(x) for x in row] for row in golden])
    assert np.array_equal(est.replicates, expected)


# values and stderr of the golden cases, as float.hex, pinned before both
# estimators shared one replicate aggregation
GOLDEN_AGGREGATES = {
    "estimate_spectrum-1013x3-period20": (
        ["0x1.9e1de1249a43fp-1", "0x1.959fb6ee316b9p-1", "0x1.3e1ab0c4a2ea7p-1"],
        ["0x1.084f1efbfb610p-9", "0x1.57cfd7a5f668cp-10", "0x1.142fb3832400ap-11"],
    ),
    "estimate_spectrum-7x2-period20": (
        ["0x1.ae6d7f97935dcp-1", "0x1.8624ff01e99e8p-1", "0x1.4364d4ed31b06p-1"],
        ["0x1.40d5b7d5c9ddfp-6", "0x1.63942c63e883fp-7", "0x1.19838247b08b0p-6"],
    ),
    "estimate_spectrum-2000x2-period3": (
        ["0x1.9d9bbdf9bb93fp-1", "0x1.40e3c4cfa8209p-1"],
        ["0x1.2f4a8ea8151ffp-10", "0x1.125330c7497ffp-9"],
    ),
    "estimate_top_exponent-1013x3-period20": (
        ["0x1.c7c649ff879dfp-1"],
        ["0x1.96b5292285ee0p-10"],
    ),
    "estimate_top_exponent-7x2-period20": (
        ["0x1.cfdb8df0eb846p-1"],
        ["0x1.e7276f62289efp-6"],
    ),
    "estimate_top_exponent-2000x2-period3": (
        ["0x1.25e730fc4b430p-1"],
        ["0x1.c2a06bccaedffp-9"],
    ),
}


@pytest.mark.parametrize(
    "estimator, make_product, n_iter, n_rep, seed, start_period, golden",
    GOLDEN_REPLICATES,
    ids=[f"{c[0]}-{c[2]}x{c[3]}-period{c[5]}" for c in GOLDEN_REPLICATES])
def test_aggregates_match_golden_bits(monkeypatch, estimator, make_product, n_iter, n_rep,
                                      seed, start_period, golden):
    monkeypatch.setattr(lyapunov, "START_PERIOD", start_period)
    est = getattr(cl, estimator)(make_product(), n_iter, n_rep, seed)
    values, stderr = GOLDEN_AGGREGATES[f"{estimator}-{n_iter}x{n_rep}-period{start_period}"]
    assert [float(v).hex() for v in est.values] == values
    assert [float(v).hex() for v in est.stderr] == stderr


# The pinned last column of the d = 3 spectrum goldens under the LU
# (np.linalg.slogdet) step determinants: replicates, value, stderr.
LU_PIN_LAST_COLUMN = {
    "estimate_spectrum-1013x3-period20": (
        ["0x1.3d9420a45dc39p-1", "0x1.3e78d70e19e27p-1", "0x1.3e431a9b71191p-1"],
        "0x1.3e1ab0c4a2ea5p-1", "0x1.142fb38323e38p-11",
    ),
    "estimate_spectrum-7x2-period20": (
        ["0x1.4c30f0ff6f34bp-1", "0x1.3a98b8daf42c2p-1"],
        "0x1.4364d4ed31b06p-1", "0x1.19838247b0890p-6",
    ),
}


@pytest.mark.parametrize("key", sorted(LU_PIN_LAST_COLUMN))
def test_cofactor_pin_moves_the_lu_goldens_by_at_most_4_ulp(monkeypatch, key):
    _, make_product, n_iter, n_rep, seed, start_period, golden = next(
        c for c in GOLDEN_REPLICATES if f"{c[0]}-{c[2]}x{c[3]}-period{c[5]}" == key)
    monkeypatch.setattr(lyapunov, "START_PERIOD", start_period)
    est = cl.estimate_spectrum(make_product(), n_iter, n_rep, seed)
    reps, value, stderr = LU_PIN_LAST_COLUMN[key]
    lu_reps = np.array([float.fromhex(x) for x in reps])
    lu_value, lu_stderr = float.fromhex(value), float.fromhex(stderr)
    assert np.all(np.abs(est.replicates[:, -1] - lu_reps) <= 4 * np.spacing(lu_reps))
    assert abs(est.values[-1] - lu_value) <= 4 * np.spacing(lu_value)
    # a few ulp of the replicates are hundreds of ulp of their spread, so the
    # stderr is held to the scale of the exponent it belongs to
    assert abs(est.stderr[-1] - lu_stderr) <= 4 * np.spacing(lu_value)


def test_golden_cases_cover_chunk_edges():
    sizes = {(n_iter, start_period)
             for _, _, n_iter, _, _, start_period, _ in GOLDEN_REPLICATES}
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


def _dominant_steps(seed, d, n):
    """n diagonally dominant (hence invertible) d x d steps, rows permuted, scaled.

    Off-diagonal rows sum to at most (d - 1) / 2 against a diagonal of d, so
    |det| stays within a modest factor of the product of the row norms.
    """
    rng = np.random.default_rng(seed)
    mats = d * np.eye(d) + rng.uniform(-0.5, 0.5, (n, d, d)) * (1.0 - np.eye(d))
    return mats[:, rng.permutation(d)] * 10.0 ** rng.uniform(-3, 3, (n, 1, 1))


@given(st.integers(1, 6), st.integers(1, 25), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_block_log_dets_match_lu_per_step(d, period, n_blocks, seed):
    mats = _dominant_steps(seed, d, 2 * n_blocks * period).reshape(
        2, n_blocks * period, d, d)
    got = lyapunov._block_log_dets(mats, period)
    want = np.linalg.slogdet(mats)[1].reshape(2, n_blocks, period).sum(axis=-1)
    assert got.shape == (2, n_blocks)
    assert np.all(np.abs(got - want) <= 1e-13 * period)


def test_block_log_dets_identity_padding_is_exactly_zero():
    for d in range(1, 7):
        mats = np.broadcast_to(np.eye(d), (3, 8, d, d))
        assert np.all(lyapunov._block_log_dets(mats, 4) == 0.0)


@pytest.mark.parametrize("bad", [
    np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]),  # rank 2
    np.array([[1.0, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 1.0]]),
], ids=["singular", "inf-entry"])
def test_block_log_dets_reject_singular_and_non_finite_steps(bad):
    mats = np.tile(np.eye(3), (2, 6, 1, 1))
    mats[1, 4] = bad
    with pytest.raises(cl.RenormalizationError, match="zero or non-finite step determinant"):
        lyapunov._block_log_dets(mats, 3)


def test_estimate_spectrum_makes_no_slogdet_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.slogdet called")

    monkeypatch.setattr(np.linalg, "slogdet", refuse)
    est = cl.estimate_spectrum(random_tuple(3, seed=1), 2000, 2, seed=0)
    assert np.all(np.isfinite(est.values))
    # the pin shares the TWIST_D cofactor kernel, not a copy of it
    assert lyapunov._minors is certify._minors


@given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_qr_step_matches_the_reduced_qr_bits(d, n_rep, seed):
    rng = np.random.default_rng(seed)
    image = rng.standard_normal((n_rep, d, d)) * np.exp(rng.uniform(-20, 20, (n_rep, 1, d)))
    kept = image.copy()
    frame, factor = lyapunov._qr_step(image)
    want_frame, want_diag = qr_step_reference(image)
    assert np.array_equal(image, kept)
    assert np.array_equal(frame, want_frame)
    assert np.array_equal(np.abs(np.diagonal(factor, axis1=1, axis2=2)), want_diag)


def _count_qr_calls(monkeypatch):
    calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(kwargs.get("mode", "reduced"))
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


@pytest.mark.parametrize("n_iter, start_period",
                         [(1013, 20), (7, 20), (2000, 3), (2560, 20)])
def test_one_public_qr_call_per_renormalization_block(monkeypatch, n_iter, start_period):
    # the benchmark counts these calls as lyapunov.qr.calls
    calls = _count_qr_calls(monkeypatch)
    monkeypatch.setattr(lyapunov, "START_PERIOD", start_period)
    rp = random_tuple(3, seed=1)
    cl.estimate_spectrum(rp, n_iter, 2, seed=0)
    assert len(calls) == math.ceil(n_iter / start_period)
    assert set(calls) == {"raw"}
    calls.clear()
    cl.estimate_top_exponent(rp, n_iter, 2, seed=0)
    assert calls == []


@pytest.mark.parametrize("n_symbols", [1, 2, 3])
def test_step_matrices_match_per_point_evaluation_bits(monkeypatch, n_symbols):
    # one trig mode per entry: a point's matrix has the same bits whether its
    # map evaluates it alone or in a batch
    rp = random_tuple(3, seed=4, degree=1, n_maps=n_symbols)
    rng = np.random.default_rng(n_symbols)
    n_rep, n, period = 3, 13, 5
    words = rng.integers(0, n_symbols, (n_rep, n)).astype(np.uint8)
    if n_symbols == 3:
        words[words == 1] = 2
    starts = rng.random((n_rep, n))
    want = np.array([[rp.maps[w].eval(t) for w, t in zip(wr, tr)]
                     for wr, tr in zip(words, starts)])
    if n_symbols == 3:
        monkeypatch.setattr(rp.maps[1], "eval_many", None)  # absent: never evaluated
    mats = lyapunov._step_matrices(rp, words, starts, period)
    assert mats.shape == (n_rep, 15, 3, 3)
    assert np.array_equal(mats[:, :n], want)
    assert np.array_equal(mats[:, n:], np.broadcast_to(np.eye(3), (n_rep, 2, 3, 3)))


@pytest.mark.parametrize("n, period", [(1280, 20), (1013, 20), (7, 20), (12, 1)])
def test_step_matrices_match_the_boolean_mask_bits(n, period):
    # degree-2 maps: batch and single-point evaluation may differ in the last
    # bit, so the reference evaluates each symbol's points in one batch too
    rp = random_tuple(3, seed=1, n_maps=3)
    words, starts, _ = draw_replicates_reference(rp, 9, n + 10, 8, with_vector=False)
    # a strided slice of the drawn arrays, as the chunk loop passes them
    words, starts = words[:, 10:], starts[:, 10:]
    got = lyapunov._step_matrices(rp, words, starts, period)
    assert np.array_equal(got, step_matrices_reference(rp, words, starts, period))


@pytest.mark.parametrize("with_vector", [False, True])
@pytest.mark.parametrize("n_symbols", [1, 2, 3])
@pytest.mark.parametrize("n_iter", [1, 6, 7, 8, 23])
def test_block_drawn_words_match_one_draw_of_the_whole_word(monkeypatch, with_vector,
                                                            n_symbols, n_iter):
    # blocks of 7 steps: the word ends inside, at and past a block boundary,
    # and the start point and vector drawn after it must not move
    monkeypatch.setattr(lyapunov, "_WORD_BLOCK", 7)
    rp = random_tuple(2, seed=n_symbols, n_maps=n_symbols)
    words, firsts, vectors = lyapunov._draw_replicates(rp, 3, n_iter, 4, with_vector)
    want_words, want_starts, want_vectors = draw_replicates_reference(rp, 3, n_iter, 4,
                                                                      with_vector)
    assert words.dtype == np.uint8
    assert np.array_equal(words, want_words)
    assert firsts.tobytes() == want_starts[:, 0].tobytes()
    if with_vector:
        assert vectors.tobytes() == want_vectors.tobytes()
    else:
        assert vectors is None


def test_block_drawn_words_match_across_the_real_block_boundary():
    rp = random_tuple(2, seed=2, n_maps=3)
    n_iter = lyapunov._WORD_BLOCK + 5
    words, firsts, vectors = lyapunov._draw_replicates(rp, 4, n_iter, 2, True)
    want_words, want_starts, want_vectors = draw_replicates_reference(rp, 4, n_iter, 2, True)
    assert np.array_equal(words, want_words)
    assert firsts.tobytes() == want_starts[:, 0].tobytes()
    assert vectors.tobytes() == want_vectors.tobytes()


def _record_chunks(monkeypatch):
    """The (words, starts) of every chunk the kernel evaluates, in order."""
    seen = []
    step_matrices = lyapunov._step_matrices

    def recording(product, words, starts, period, workspace=None):
        seen.append((words.copy(), starts.copy()))
        return step_matrices(product, words, starts, period, workspace)

    monkeypatch.setattr(lyapunov, "_step_matrices", recording)
    return seen


@pytest.mark.parametrize("estimator", ["estimate_spectrum", "estimate_top_exponent"])
@pytest.mark.parametrize("n_symbols", [1, 2, 3])
@pytest.mark.parametrize("chunks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)],
                         ids=["1", "chunk-1", "chunk", "chunk+1", "3chunk+7"])
def test_streamed_starts_match_one_full_length_cumsum(monkeypatch, estimator, n_symbols,
                                                      chunks, extra):
    monkeypatch.setattr(lyapunov, "START_PERIOD", 3)
    chunk = lyapunov.CHUNK_BLOCKS * 3
    n_iter = chunks * chunk + extra
    rp = random_tuple(2, seed=n_symbols, n_maps=n_symbols)
    seen = _record_chunks(monkeypatch)
    getattr(cl, estimator)(rp, n_iter, 3, seed=11)
    words, starts, _ = draw_replicates_reference(rp, 11, n_iter, 3,
                                                 estimator == "estimate_top_exponent")
    assert [w.shape[1] for w, _ in seen] == [min(chunk, n_iter - lo)
                                             for lo in range(0, n_iter, chunk)]
    assert np.array_equal(np.concatenate([w for w, _ in seen], axis=1), words)
    # tobytes: a signed zero must match too
    assert np.concatenate([t for _, t in seen], axis=1).tobytes() == starts.tobytes()


def test_sampling_memory_grows_by_the_words_byte_per_step(monkeypatch):
    # the parent layout held every start point (8 bytes per step and
    # replicate) and a longdouble cumsum: about 14 bytes per step
    monkeypatch.setattr(lyapunov, "START_PERIOD", 100)
    rp = random_tuple(2, seed=1)
    cl.estimate_spectrum(rp, 2_000, 8, seed=0)  # one-time allocations
    peaks = []
    for n_iter in (100_000, 400_000):
        tracemalloc.start()
        try:
            cl.estimate_spectrum(rp, n_iter, 8, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 1.25 * 8 * 300_000
