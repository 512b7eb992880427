import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab as cl
from cocyclelab import certify, lyapunov
from util import (SILVER, axis_pair, conjugated_diagonal_tuple, diagonal_first_tuple_d4,
                  draw_replicates_reference, pipeline_tuple_d3, qr_step_reference,
                  random_tuple, schrodinger_pair, step_matrices_reference)

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


def _jensen_log_mean(poly):
    """Circle integral of log |f| for a scalar TrigPolynomial f with no zero
    on the circle, by Jensen's formula: f is z^-K P(z) on z = e^{2 pi i t},
    and the integral is log |leading coefficient of P| plus log |z| summed
    over the roots z of P outside the unit circle."""
    half = (poly.cos_coeffs - 1j * poly.sin_coeffs) / 2.0
    coeffs = np.trim_zeros(np.concatenate([half[::-1], [poly.const], half.conj()]), "f")
    roots = np.roots(coeffs)
    return math.log(abs(coeffs[0])) + float(np.sum(np.log(np.abs(roots[np.abs(roots) > 1.0]))))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_diagonal_spectrum_and_log_det_match_jensens_formula(seed):
    # seeded diagonal maps of degree 2 whose modes sum to less than the
    # constant term, so no entry vanishes on the circle
    rng = np.random.default_rng(seed)
    d = 3
    maps = []
    for _ in range(2):
        const = rng.choice([-1.0, 1.0], d) * rng.uniform(0.5, 2.0, d)
        cos, sin = rng.standard_normal((2, 2, d))
        shrink = 0.95 * np.abs(const) * rng.uniform(0.0, 1.0, d) / np.hypot(cos, sin).sum(axis=0)
        maps.append(cl.TrigMatrixMap(np.diag(const), [np.diag(c) for c in cos * shrink],
                                     [np.diag(s) for s in sin * shrink], group_tag=cl.DIAGONAL))
    rp = cl.RandomProduct([cl.GOLDEN_MEAN, SILVER], maps, [0.3, 0.7])
    want = sum(w * np.array([_jensen_log_mean(cl.TrigPolynomial(
        m.const[i, i], m.cos_coeffs[:, i, i], m.sin_coeffs[:, i, i])) for i in range(d)])
        for w, m in zip(rp.weights, maps))
    assert np.max(np.abs(cl.diagonal_spectrum(rp) - np.sort(want)[::-1])) <= 1e-12
    assert abs(cl.mean_log_abs_det(rp) - want.sum()) <= 1e-12


def _jensen_log_mean_of_det(mat_map):
    """Circle integral of log |det A(t)| by Jensen's formula.

    det A is a trig polynomial of degree K = d deg A, so the FFT of its
    values on the smallest power of two of at least 4K + 4 points gives its
    modes c_0 ... c_K.  Trailing modes under 1e-13 of the largest are
    rounding (det A = 1 has modes of about 1e-17 up to K) and are dropped;
    then det A is z^-K P(z) on z = e^{2 pi i t}, with P's coefficients
    c_K ... c_1, c_0, conj(c_1) ... conj(c_K), and the integral is
    log |c_K| plus log |z| over the roots of P outside the unit circle.
    """
    k = mat_map.dim * mat_map.degree
    n = 1 << (4 * k + 3).bit_length()
    modes = np.fft.rfft(np.linalg.det(mat_map.eval_many(np.arange(n) / n))) / n
    size = np.abs(modes[:k + 1])
    modes = modes[:np.flatnonzero(size > 1e-13 * size.max())[-1] + 1]
    roots = np.roots(np.concatenate([modes[::-1], modes[1:].conj()]))
    return math.log(abs(modes[-1])) + float(np.sum(np.log(np.abs(roots[np.abs(roots) > 1.0]))))


JENSEN_TUPLES = {
    **{f"random_tuple({d}, {seed})": (lambda d=d, seed=seed: random_tuple(d, seed))
       for d in (2, 3, 4, 5) for seed in (1, 2, 3)},
    "pipeline_tuple_d3": pipeline_tuple_d3,
    "diagonal_first_tuple_d4(1)": lambda: diagonal_first_tuple_d4(1),
    "diagonal_first_tuple_d4(2)": lambda: diagonal_first_tuple_d4(2),
    "schrodinger_pair": lambda: schrodinger_pair()[0],
    "axis_pair": axis_pair,
    **{f"conjugated_diagonal_tuple({d}, {seed})[{part}]":
       (lambda d=d, seed=seed, part=part: conjugated_diagonal_tuple(d, seed)[part])
       for d in (2, 3, 4) for seed in (1, 2) for part in (0, 1)},
}


@pytest.mark.parametrize("name", list(JENSEN_TUPLES))
def test_log_det_and_diagonal_spectrum_match_jensens_formula_on_the_test_tuples(name):
    # both sides are exact up to rounding: each is Jensen's formula on the
    # FFT modes of the zero-free determinants (the sum of diagonal_spectrum
    # on those of the entries), chopped by its own rule, and np.roots places
    # each root to a few eps times its condition.  The gaps are at most
    # 1.4e-15; 1e-13 leaves room for another LAPACK, not for a wrong formula
    product = JENSEN_TUPLES[name]()
    want = sum(w * _jensen_log_mean_of_det(m) for w, m in zip(product.weights, product.maps))
    assert abs(cl.mean_log_abs_det(product) - want) <= 1e-13
    if all(m.group_tag == cl.DIAGONAL for m in product.maps):
        assert abs(float(np.sum(cl.diagonal_spectrum(product))) - want) <= 1e-13


def test_diagonal_spectrum_and_log_det_reject_an_entry_with_a_real_zero():
    # diag(sin 2 pi (t - a), 1) with a = 2^-15 passes the map's 1024-point
    # invertibility check, which the zeros at a and a + 1/2 fall between; a
    # 16384-point grid mean of log |a_11| read -0.69306 and raised nothing
    a = 2.0 ** -15
    # sin 2 pi (t - a) = -sin(2 pi a) cos 2 pi t + cos(2 pi a) sin 2 pi t
    cos = np.diag([-math.sin(2 * math.pi * a), 0.0])[None]
    sin = np.diag([math.cos(2 * math.pi * a), 0.0])[None]
    m = cl.TrigMatrixMap(np.diag([0.0, 1.0]), cos, sin, group_tag=cl.DIAGONAL)
    rp = cl.RandomProduct([cl.GOLDEN_MEAN], [m])
    with pytest.raises(cl.RenormalizationError, match="diagonal entry vanishes"):
        cl.diagonal_spectrum(rp)
    with pytest.raises(cl.RenormalizationError, match="determinant vanishes"):
        cl.mean_log_abs_det(rp)


def test_diagonal_spectrum_of_constant_maps_is_exact():
    values = np.array([3.7, -0.3, 1.9, 2.0, 0.5])
    spec = cl.diagonal_spectrum(constant_diag(values))
    assert spec.tolist() == sorted(np.log(np.abs(values)).tolist(), reverse=True)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_estimate_spectrum_of_a_conjugated_diagonal_tuple(d, seed):
    # the tuple is conjugate to a diagonal one by a bounded B(t), so its
    # exact spectrum is the diagonal tuple's; with d = 5 at seed 2 it checks
    # the frame route on the kind of tuple that once broke the lower
    # exponents (a widely spread spectrum at d >= 3)
    product, diagonal = conjugated_diagonal_tuple(d, seed)
    exact = cl.diagonal_spectrum(diagonal)
    # each entry c + a cos 2 pi t + b sin 2 pi t, |c| > hypot(a, b), has the
    # circle mean of log |entry| log((|c| + sqrt(c^2 - a^2 - b^2)) / 2)
    closed = sum(weight * np.log((np.abs(c) + np.sqrt(c * c - a * a - b * b)) / 2.0)
                 for weight, (c, a, b) in zip(
                     diagonal.weights,
                     ([np.diagonal(x) for x in (m.const, m.cos_coeffs[0], m.sin_coeffs[0])]
                      for m in diagonal.maps)))
    assert np.max(np.abs(exact - np.sort(closed)[::-1])) <= 1e-14
    est = cl.estimate_spectrum(product, 50_000, 16, seed=seed)
    assert np.all(np.abs(est.values - exact) <= 4.0 * est.stderr)


@pytest.mark.parametrize("seed", range(5))
def test_equal_exponents_are_averaged_before_sorting(seed):
    # both exponents are exactly 0; sorting each replicate before the mean
    # pushed the top one 3.7 to 7.5 standard errors above it
    maps = [cl.TrigMatrixMap.constant(np.diag(np.exp(v)), group_tag=cl.DIAGONAL)
            for v in ([0.5, -0.5], [-0.5, 0.5])]
    est = cl.estimate_spectrum(cl.RandomProduct([cl.GOLDEN_MEAN, SILVER], maps),
                               20000, 8, seed)
    assert abs(est.values[0]) < 3.0 * est.stderr[0]
    assert est.values.tolist() == est.replicates.mean(axis=0).tolist()


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
    # a single step of 1e160 keeps the frame finite, but squares past the
    # float range on the vector route; the map's scale, the geometric mean
    # 1e10 of its rows, is in range, so the kernel takes it unscaled
    rp = constant_diag([1e160, 1e-140])
    est = cl.estimate_spectrum(rp, 50, 1, seed=0)
    assert np.max(np.abs(est.values - [math.log(1e160), math.log(1e-140)])) <= 1e-12
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


@pytest.mark.parametrize("scale", [1e80, 1e-80, 1e160, 1e-160])
@pytest.mark.parametrize("d", [2, 3])
def test_out_of_range_maps_are_prescaled(d, scale):
    # 1e+-160 took the step determinants and the squared norms past the
    # float range; the kernel now scales each map by a power of two to a
    # scale near 1 and adds the shift back
    rp = random_tuple(d, seed=1)
    scaled = cl.RandomProduct(rp.angles, [scale * m for m in rp.maps], rp.weights)
    for estimator in (cl.estimate_spectrum, cl.estimate_top_exponent):
        base = estimator(rp, 3000, 2, seed=0)
        shifted = estimator(scaled, 3000, 2, seed=0)
        assert np.max(np.abs(shifted.replicates - base.replicates - math.log(scale))) <= 1e-9
        assert np.max(np.abs(shifted.half_run - base.half_run - math.log(scale))) <= 1e-9


def test_in_range_maps_are_iterated_as_they_are():
    # every map whose scale lies within 2^+-64 keeps k_s = 0
    for rp in (random_tuple(3, seed=1), schrodinger_pair(3.0)[0], constant_diag([1e20, 1.0]),
               constant_diag([1e38, 1.0])):
        scaled, exponents = lyapunov._prescaled(rp)
        assert scaled is rp and exponents == [0] * rp.n_symbols
    rp = constant_diag([2.0 ** 140, 1.0])
    _, exponents = lyapunov._prescaled(rp)
    assert exponents == [70]


def _periods_of(monkeypatch, estimator, product, n_chunks):
    periods = _block_periods(monkeypatch)
    chunk = lyapunov.CHUNK_BLOCKS * lyapunov.START_PERIOD
    est = estimator(product, n_chunks * chunk, 2, seed=0)
    return periods, est


@pytest.mark.parametrize("estimator", [cl.estimate_spectrum, cl.estimate_top_exponent])
def test_calm_chunks_double_the_period_up_to_a_quarter_chunk(monkeypatch, estimator):
    periods, est = _periods_of(monkeypatch, estimator, constant_diag([1.01, 0.99]), 7)
    assert periods == [20, 40, 80, 160, 320, 320, 320]
    assert lyapunov.CHUNK_BLOCKS * lyapunov.START_PERIOD // 320 == lyapunov.MIN_BLOCKS
    if estimator is cl.estimate_spectrum:
        assert np.max(np.abs(est.values - np.log([1.01, 0.99]))) <= 1e-12


@pytest.mark.parametrize("growth, want", [(4.0, [20, 40, 40, 40]), (4.5, [20] * 4)])
def test_doubling_reads_an_eighth_of_the_float_range(monkeypatch, growth, want):
    # 20 steps of e^4 grow 80 in log, within log(float max) / 8 = 88.7;
    # 20 steps of e^4.5 grow 90, and 40 steps of e^4 grow 160
    periods, est = _periods_of(monkeypatch, cl.estimate_spectrum,
                               constant_diag([math.exp(growth), 1.0]), 4)
    assert periods == want
    assert abs(est.top - growth) <= 1e-12


@pytest.mark.parametrize("a, want", [(0.4, [20, 40, 40, 40]), (0.5, [20] * 4)])
def test_doubling_reads_half_the_spread_budget(monkeypatch, a, want):
    # the top two columns part by a per step: 8 at 20 steps is within half
    # of SPREAD_BUDGET (about 9), 10 is not, and 16 at 40 steps is within it
    periods, est = _periods_of(monkeypatch, cl.estimate_spectrum, conjugated_constant(a), 4)
    assert periods == want
    assert abs(est.values[1]) <= 5e-5
    assert abs(est.values[2] + a) <= 5e-5


def test_a_halved_period_never_doubles_back(monkeypatch):
    # with no log budget the period doubles until 80 steps of 1e5 overflow;
    # that chunk is redone once at 40, which then holds
    monkeypatch.setattr(lyapunov, "_LOG_ROOM", np.inf)
    periods, est = _periods_of(monkeypatch, cl.estimate_spectrum, constant_diag([1e5, 1.0]), 6)
    assert periods == [20, 40, 80, 40, 40, 40, 40]
    assert np.max(np.abs(est.values - [math.log(1e5), 0.0])) <= 1e-12


@given(st.integers(2, 4), st.integers(0, 2), st.integers(-40, 40), st.integers(0, 2**16))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_estimate_spectrum_matches_conjugated_diagonal_tuples(d, m, power, seed):
    # an oracle independent of the kernel's arithmetic: the exact spectrum of
    # a tuple conjugate to a diagonal one, shifted by the power of two that
    # scales every map; the examples are fixed, as the check is statistical
    product, diagonal = conjugated_diagonal_tuple(d, seed, m=m)
    scaled = cl.RandomProduct(product.angles, [2.0 ** power * a for a in product.maps],
                              product.weights)
    exact = cl.diagonal_spectrum(diagonal) + power * LOG2
    est = cl.estimate_spectrum(scaled, 3000, 8, seed=seed)
    assert np.all(np.abs(est.values - exact) <= 5.0 * est.stderr)
    again = cl.estimate_spectrum(scaled, 3000, 8, seed=seed)
    assert again.replicates.tobytes() == est.replicates.tobytes()


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


# Replicate values of the lockstep kernel, as float.hex literals: the kernel
# must reproduce them bit for bit.  They were first the per-replicate
# estimators' values that the kernel replaced; the last column of the d = 3
# spectrum cases, the exponent pinned by the step determinants, was re-pinned
# when those moved from LU to the cofactor kernel (see LU_PIN_LAST_COLUMN),
# and every case was regenerated when the step points became orbit phasors.
GOLDEN_REPLICATES = [
    ("estimate_spectrum", lambda: random_tuple(3, seed=1), 1013, 3, 5, 20, [
        ["0x1.9f3e99959b638p-1", "0x1.94842308d7a14p-1", "0x1.3d9420a45dc38p-1"],
        ["0x1.9c0e099b7393ep-1", "0x1.96d5db3c0d103p-1", "0x1.3e78d70e19e29p-1"],
        ["0x1.9f0d003cbfd45p-1", "0x1.95852685af90ep-1", "0x1.3e431a9b71193p-1"],
    ]),
    ("estimate_spectrum", lambda: random_tuple(3, seed=1), 7, 2, 6, 20, [
        ["0x1.a466d1d8e50ebp-1", "0x1.8bb34fb379409p-1", "0x1.4c30f0ff6f34ep-1"],
        ["0x1.b8742d5641acbp-1", "0x1.8096ae5059fc7p-1", "0x1.3a98b8daf42c0p-1"],
    ]),
    ("estimate_spectrum", lambda: random_tuple(2, seed=3), 2000, 2, 7, 3, [
        ["0x1.9d0418b26789ep-1", "0x1.3fd1719ee0d62p-1"],
        ["0x1.9e3363410f9e5p-1", "0x1.41f618006f6a3p-1"],
    ]),
    ("estimate_top_exponent", lambda: schrodinger_pair(3.0)[0], 1013, 3, 5, 20, [
        ["0x1.c69d0bef31d11p-1"],
        ["0x1.c76a81e52acd0p-1"],
        ["0x1.c94b502a3a3bep-1"],
    ]),
    ("estimate_top_exponent", lambda: schrodinger_pair(3.0)[0], 7, 2, 6, 20, [
        ["0x1.df14c96bfcc95p-1"],
        ["0x1.c0a25275da3f6p-1"],
    ]),
    ("estimate_top_exponent", lambda: schrodinger_pair(2.5)[0], 2000, 2, 7, 3, [
        ["0x1.27a9d16817f21p-1"],
        ["0x1.242490907e941p-1"],
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
# estimators shared one replicate aggregation and regenerated with the
# replicates above
GOLDEN_AGGREGATES = {
    "estimate_spectrum-1013x3-period20": (
        ["0x1.9e1de1249a43fp-1", "0x1.959fb6ee316b8p-1", "0x1.3e1ab0c4a2ea7p-1"],
        ["0x1.084f1efbfb68bp-9", "0x1.57cfd7a5f6557p-10", "0x1.142fb3832421ep-11"],
    ),
    "estimate_spectrum-7x2-period20": (
        ["0x1.ae6d7f97935dbp-1", "0x1.8624ff01e99e8p-1", "0x1.4364d4ed31b07p-1"],
        ["0x1.40d5b7d5c9dffp-6", "0x1.63942c63e883fp-7", "0x1.19838247b08e0p-6"],
    ),
    "estimate_spectrum-2000x2-period3": (
        ["0x1.9d9bbdf9bb942p-1", "0x1.40e3c4cfa8202p-1"],
        ["0x1.2f4a8ea814700p-10", "0x1.125330c74a080p-9"],
    ),
    "estimate_top_exponent-1013x3-period20": (
        ["0x1.c7c649ff879e0p-1"],
        ["0x1.96b5292286027p-10"],
    ),
    "estimate_top_exponent-7x2-period20": (
        ["0x1.cfdb8df0eb846p-1"],
        ["0x1.e7276f62289efp-6"],
    ),
    "estimate_top_exponent-2000x2-period3": (
        ["0x1.25e730fc4b431p-1"],
        ["0x1.c2a06bccaefffp-9"],
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


def _record_blocks(monkeypatch):
    """The renormalization blocks of every chunk walk the kernel makes, in order."""
    blocks = []
    block_products = lyapunov._block_products

    def recording(mats, period):
        blocks.append(mats.shape[1] // period)
        return block_products(mats, period)

    monkeypatch.setattr(lyapunov, "_block_products", recording)
    return blocks


@pytest.mark.parametrize("n_iter, start_period",
                         [(1013, 20), (7, 20), (2000, 3), (2560, 20)])
def test_one_public_qr_call_per_renormalization_block(monkeypatch, n_iter, start_period):
    # the benchmark counts these calls as lyapunov.qr.calls
    calls = _count_qr_calls(monkeypatch)
    blocks = _record_blocks(monkeypatch)
    monkeypatch.setattr(lyapunov, "START_PERIOD", start_period)
    rp = random_tuple(3, seed=1)
    cl.estimate_spectrum(rp, n_iter, 2, seed=0)
    assert len(calls) == sum(blocks)
    assert set(calls) == {"raw"}
    # a doubled period runs fewer blocks than the start period would
    assert sum(blocks) <= math.ceil(n_iter / start_period)
    calls.clear()
    cl.estimate_top_exponent(rp, n_iter, 2, seed=0)
    assert calls == []


def _phasor_values(mat_map, phasors):
    """A map's values at an array of phasors, through the harmonics of
    their powers."""
    out = np.empty((len(phasors),) + mat_map.const.shape)
    return mat_map._eval_harmonics(*lyapunov._harmonics(phasors, mat_map.degree), out)


@pytest.mark.parametrize("n_symbols", [1, 2, 3])
def test_step_matrices_match_per_point_evaluation_bits(monkeypatch, n_symbols):
    # one trig mode per entry: a phasor's matrix has the same bits whether
    # its map evaluates it alone or in a batch
    rp = random_tuple(3, seed=4, degree=1, n_maps=n_symbols)
    rng = np.random.default_rng(n_symbols)
    n_rep, n, period = 3, 13, 5
    words = rng.integers(0, n_symbols, (n_rep, n)).astype(np.uint8)
    if n_symbols == 3:
        words[words == 1] = 2
    phasors = np.exp(2j * np.pi * rng.random((n_rep, n)))
    want = np.array([[_phasor_values(rp.maps[w], np.array([p]))[0] for w, p in zip(wr, pr)]
                     for wr, pr in zip(words, phasors)])
    if n_symbols == 3:
        monkeypatch.setattr(rp.maps[1], "_eval_harmonics", None)  # absent: never evaluated
    mats = lyapunov._step_matrices(rp, words, phasors, period)
    assert mats.shape == (n_rep, 15, 3, 3)
    assert np.array_equal(mats[:, :n], want)
    assert np.array_equal(mats[:, n:], np.broadcast_to(np.eye(3), (n_rep, 2, 3, 3)))


@pytest.mark.parametrize("n, period", [(1280, 20), (1013, 20), (7, 20), (12, 1)])
def test_step_matrices_match_the_boolean_mask_bits(n, period):
    # degree-2 maps: batch and single-phasor evaluation may differ in the
    # last bit, so the reference evaluates each symbol's phasors in one
    # batch too
    rp = random_tuple(3, seed=1, n_maps=3)
    words, starts, _ = draw_replicates_reference(rp, 9, n + 10, 8, with_vector=False)
    # a strided slice of the drawn arrays, as the chunk loop passes them
    words, phasors = words[:, 10:], np.exp(2j * np.pi * starts)[:, 10:]
    got = lyapunov._step_matrices(rp, words, phasors, period)
    assert np.array_equal(got, step_matrices_reference(rp, words, phasors, period,
                                                       _phasor_values))


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
    """The (words, phasors) of every chunk the kernel evaluates, in order."""
    seen = []
    step_matrices = lyapunov._step_matrices

    def recording(product, words, points, period, workspace=None):
        # a redone chunk is evaluated again from the same arrays
        if not seen or seen[-1][0] is not words:
            seen.append((words, points.copy()))
        return step_matrices(product, words, points, period, workspace)

    monkeypatch.setattr(lyapunov, "_step_matrices", recording)
    return seen


def _exact_orbit(angles, word, first):
    """Points t_j = first + angles[w_0] + ... + angles[w_{j-1}] mod 1 in exact
    rational arithmetic on the float angles, one per step of the word."""
    step = [Fraction(float(a)) for a in angles]
    t = Fraction(float(first))
    points = []
    for s in word:
        points.append(float(t - math.floor(t)))
        t += step[s]
    return np.array(points)


@pytest.mark.parametrize("estimator", ["estimate_spectrum", "estimate_top_exponent"])
@pytest.mark.parametrize("n_symbols", [1, 2, 3])
@pytest.mark.parametrize("chunks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)],
                         ids=["1", "chunk-1", "chunk", "chunk+1", "3chunk+7"])
def test_streamed_starts_match_one_full_length_cumsum(monkeypatch, estimator, n_symbols,
                                                      chunks, extra):
    # the phasors the kernel streams chunk by chunk sit on the orbit of one
    # exact cumulative sum over the whole word
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
    phasors = np.concatenate([p for _, p in seen], axis=1)
    exact = np.array([_exact_orbit(rp.angles, w, t) for w, t in zip(words, starts[:, 0])])
    assert np.max(np.abs(phasors - np.exp(2j * np.pi * exact))) <= 1e-13


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


def test_half_run_is_the_estimate_at_the_chunk_boundary_nearest_half():
    """At d = 1 the vector route's log sum is the Birkhoff sum of log |a|,
    so the half-run estimate can be summed directly: 20000 steps put it at
    step 10240, the chunk boundary nearest 10000."""
    a = cl.TrigMatrixMap.from_rows((1, 1), [[2.0, 1.0, 0.0]], group_tag=cl.DIAGONAL)
    product = cl.RandomProduct([cl.GOLDEN_MEAN], [a])
    chunk = lyapunov.CHUNK_BLOCKS * lyapunov.START_PERIOD
    assert chunk == 1280
    est = cl.estimate_top_exponent(product, 20000, 2, seed=3)
    _, firsts, _ = lyapunov._draw_replicates(product, 3, 20000, 2, with_vector=True)
    steps = np.arange(20000)
    logs = np.log(np.abs(np.array([a.eval_many(np.mod(t + steps * cl.GOLDEN_MEAN, 1.0))[:, 0, 0]
                                   for t in firsts])))

    def mean_at(n):
        return np.mean(np.sum(logs[:, :n], axis=1) / n)

    assert abs(est.top - mean_at(20000)) <= 1e-12
    assert abs(est.half_run[0] - mean_at(10240)) <= 1e-12
    # the neighbouring boundaries read visibly different estimates
    for n in (8960, 11520):
        assert abs(est.half_run[0] - mean_at(n)) > 1e-8


def test_half_run_of_a_one_chunk_run_is_the_final_estimate():
    for estimator in (cl.estimate_spectrum, cl.estimate_top_exponent):
        est = estimator(random_tuple(2, seed=1), 1000, 2, seed=0)
        assert est.half_run.tobytes() == est.values.tobytes()
