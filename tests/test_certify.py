"""Certificates: minors, subset-sum gaps, projective twisting, log integrals."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cocyclelab as cl
from cocyclelab import _circle_roots, certify, holonomy
from cocyclelab.certify import REL_GAP
from util import (axis_pair, bisect_reference, diagonal_first_tuple_d4, pipeline_tuple_d3,
                  random_tuple, schrodinger_pair)

LOG2 = math.log(2.0)


def test_certificate_contract():
    cert = cl.Certificate("WEAK_PINCH", "PASS", 0.1)
    assert cert.passed
    assert not cl.Certificate("WEAK_PINCH", "FAIL", -0.1).passed
    # a clean TWIST_D pass sits exactly at zero, every other kind must clear it
    cl.Certificate("TWIST_D", "PASS", 0.0)
    with pytest.raises(ValueError):
        cl.Certificate("WEAK_PINCH", "PASS", 0.0)
    with pytest.raises(ValueError):
        cl.Certificate("NOT_A_KIND", "PASS", 1.0)
    with pytest.raises(ValueError):
        cl.Certificate("WEAK_PINCH", "MAYBE", 1.0)
    with pytest.raises(ValueError):
        cl.Certificate("WEAK_PINCH", "PASS", math.nan)


def test_certificate_json_round_trip(tmp_path):
    cert = cl.Certificate(
        "TWIST_D", "FAIL", -1.0,
        diagnostics={"integral": math.inf, "count": np.int64(3),
                     "flags": [np.True_, np.False_]},
        seed=7, input_digest="abc",
    )
    path = tmp_path / "cert.json"
    cert.write_json(path)
    doc = json.loads(path.read_text())
    assert doc["kind"] == "TWIST_D"
    assert doc["margin"] == -1.0
    assert doc["seed"] == 7
    assert doc["input_digest"] == "abc"
    assert doc["diagnostics"]["integral"] == "inf"
    assert doc["diagnostics"]["count"] == 3
    assert doc["diagnostics"]["flags"] == [True, False]


def test_minor_index_validation():
    idx = cl.MinorIndex([1, 3], (2, 3))
    assert idx.rows == (1, 3) and idx.cols == (2, 3)
    with pytest.raises(ValueError):
        cl.MinorIndex((0, 1), (1, 2))
    with pytest.raises(ValueError):
        cl.MinorIndex((2, 1), (1, 2))
    with pytest.raises(ValueError):
        cl.MinorIndex((1, 1), (1, 2))
    with pytest.raises(ValueError):
        cl.MinorIndex((1, 2), (1,))
    with pytest.raises(ValueError):
        cl.MinorIndex((), ())


def test_all_minor_indices_counts():
    assert len(list(cl.all_minor_indices(2))) == 5
    assert len(list(cl.all_minor_indices(3))) == 19
    assert len(list(cl.all_minor_indices(4))) == 69


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0.0
    for j in range(len(m)):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1.0) ** j * m[0][j] * _cofactor_det(sub)
    return total


def test_minor_matches_cofactor_expansion():
    rng = np.random.default_rng(10)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        mat = rng.standard_normal((d, d))
        for index in cl.all_minor_indices(d):
            sub = mat[np.ix_([r - 1 for r in index.rows],
                             [c - 1 for c in index.cols])]
            want = _cofactor_det(sub.tolist())
            assert cl.minor(mat, index) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        cl.minor(np.eye(2), cl.MinorIndex((1, 3), (1, 2)))
    with pytest.raises(ValueError):
        cl.minor(np.ones((2, 3)), cl.MinorIndex((1,), (1,)))


def _random_entries(seed, d, n):
    """A (d, d, n) entry layout whose rows differ in scale by up to 1e6."""
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((n, d, d)) * 10.0 ** rng.uniform(-3, 3, (1, d, 1))
    return stack, certify._entries(stack)


@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
           st.just(d), st.integers(1, d), st.integers(0, 2**32 - 1))))
@settings(max_examples=80, deadline=None)
def test_minors_match_lu_determinant(case):
    d, k, seed = case
    stack, entries = _random_entries(seed, d, 5)
    rng = np.random.default_rng(seed + 1)
    rows = sorted(rng.choice(d, k, replace=False).tolist())
    cols = sorted(rng.choice(d, k, replace=False).tolist())
    sub = stack[:, rows][:, :, cols]
    scale = np.prod(np.linalg.norm(sub, axis=2), axis=1)
    got = certify._minors(entries, rows, cols)
    assert np.all(np.abs(got - np.linalg.det(sub)) <= 1e-12 * scale)


def test_minors_keep_the_one_and_two_row_formulas_bit_for_bit():
    stack, entries = _random_entries(3, 4, 64)
    for index in cl.all_minor_indices(4):
        if len(index.rows) > 2:
            continue
        rows = np.array(index.rows) - 1
        cols = np.array(index.cols) - 1
        if len(rows) == 1:
            want = stack[:, rows[0], cols[0]]
        else:
            sub = stack[:, rows[:, None], cols]
            want = sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]
        got = certify._minors(entries, rows.tolist(), cols.tolist())
        assert got.tobytes() == want.tobytes()


def test_minors_share_sub_minors_with_the_bits_of_plain_recursion():
    # _cofactor_det on entry arrays expands every sub-minor afresh, in the
    # same order and with the same signs as the shared table
    for d in (3, 4, 5, 6):
        _, entries = _random_entries(d, d, 64)
        for index in cl.all_minor_indices(d):
            rows = [r - 1 for r in index.rows]
            cols = [c - 1 for c in index.cols]
            want = _cofactor_det([[entries[r, c] for c in cols] for r in rows])
            assert certify._minors(entries, rows, cols).tobytes() == want.tobytes()


def test_weakly_pinching_hyperbolic_passes():
    # the vector iterate sheds its transient like 1/n, so expect ~1e-4 here
    cert = cl.weakly_pinching(axis_pair(), seed=1)
    assert cert.kind == "WEAK_PINCH" and cert.passed
    assert cert.diagnostics["lambda_top"] == pytest.approx(LOG2, abs=2e-3)
    assert cert.margin == pytest.approx(LOG2, abs=5e-3)
    assert cert.seed == 1
    # the run size is reported from the module constants
    assert set(cert.diagnostics) == {"lambda_top", "stderr", "threshold", "n_iter", "n_rep",
                                     "half_run_ratio"}
    assert cert.diagnostics["n_iter"] == certify.PINCH_N_ITER == 20000
    assert cert.diagnostics["n_rep"] == certify.PINCH_N_REP == 8
    assert abs(cert.diagnostics["half_run_ratio"] - 1.0) < 1e-3


def _parabolic_pair():
    """Map 0 is the constant parabolic [[1, 1], [0, 1]], exponent exactly 0."""
    parabolic = cl.TrigMatrixMap.constant([[1.0, 1.0], [0.0, 1.0]], group_tag=cl.SL2)
    hyperbolic = cl.TrigMatrixMap.constant(np.diag([2.0, 0.5]), group_tag=cl.SL2)
    return cl.RandomProduct([cl.GOLDEN_MEAN, 0.3], [parabolic, hyperbolic])


@pytest.mark.parametrize("make_product, seeds", [
    (_parabolic_pair, (0, 1, 2)),
    (lambda: schrodinger_pair(2.0)[0], (1, 4, 5, 6, 7, 9, 11)),
], ids=["parabolic", "schrodinger-2.0"])
def test_weakly_pinching_zero_exponent_is_inconclusive(make_product, seeds):
    """A polynomial growth reads about log(n) / n at every replicate alike,
    so these estimates clear three standard errors; the half-run ratio,
    about 1.6-1.9 on them, keeps them from PASSing."""
    product = make_product()
    for seed in seeds:
        cert = cl.weakly_pinching(product, seed=seed)
        assert cert.margin > 0.0
        assert cert.diagnostics["half_run_ratio"] > certify.HALF_RUN_MAX == 1.25
        assert cert.verdict == "INCONCLUSIVE"


def test_pipeline_returns_certificates_at_a_large_energy():
    # 20 Schrodinger steps at energy 1e8 square past the float range; the
    # top-exponent estimator halves its period instead of raising
    certs = cl.certification_pipeline(schrodinger_pair(1e8)[0])
    assert [type(c) for c in certs] == [cl.Certificate, cl.Certificate]
    assert certs[0].kind == "WEAK_PINCH" and certs[0].passed
    assert certs[0].diagnostics["lambda_top"] == pytest.approx(math.log(1e8), abs=1e-3)


def test_weakly_pinching_isometry_is_inconclusive():
    rot = cl.right_rotate(cl.TrigMatrixMap.constant(np.eye(2), group_tag=cl.SL2),
                          0.17)
    product = cl.RandomProduct([cl.GOLDEN_MEAN, 0.3], [rot, rot])
    cert = cl.weakly_pinching(product, seed=0)
    assert cert.verdict == "INCONCLUSIVE"
    assert abs(cert.diagnostics["lambda_top"]) < 1e-10


def test_weakly_twisting_rotated_axes_pass():
    cert = cl.weakly_twisting(axis_pair(0.125), seed=3)
    assert cert.kind == "WEAK_TWIST" and cert.passed
    assert cert.diagnostics["n_samples"] == certify.TWIST_N_SAMPLES == 200
    assert cert.diagnostics["converged_fraction"] == 1.0
    assert cert.diagnostics["separated_fraction"] == 1.0
    assert cert.diagnostics["min_separation"] == pytest.approx(
        math.sin(math.pi / 4), abs=1e-9)


def test_weakly_twisting_trivial_holonomy_fails():
    a0 = cl.TrigMatrixMap.constant(np.diag([2.0, 0.5]), group_tag=cl.SL2)
    product = cl.RandomProduct([cl.GOLDEN_MEAN, 0.3], [a0, a0])
    cert = cl.weakly_twisting(product, seed=3)
    assert cert.verdict == "FAIL"
    assert cert.diagnostics["witnesses"]
    assert cert.diagnostics["min_separation"] <= 1e-9
    with pytest.raises(ValueError):
        cl.weakly_twisting(random_tuple(3, seed=0))


# float.hex of the WEAK_TWIST diagnostics on the Schrodinger pair at the
# 200-step pullback (one exactly placed base orbit, one power-of-two scale,
# closed-form singular vectors): that route must stay bit for bit
SCHRODINGER_TWIST_MIN_SEPARATION = "0x1.abf4a868109aep-9"
SCHRODINGER_TWIST_WITNESSES = [
    ("0x1.730a97f508540p-5", "0x1.68e625a023d7ep-4"),
    ("0x1.050928da2950cp-3", "0x1.ce412cbc2be7ap-7"),
    ("0x1.add2ee249a428p-3", "0x1.1ea838a7dafe7p-4"),
    ("0x1.ec6399bee402cp-1", "0x1.3af1ea68c7e21p-4"),
    ("0x1.eba0dc1dcdbdcp-1", "0x1.324c6eb2e2746p-4"),
    ("0x1.7364cda2a6e9cp-1", "0x1.abf4a868109aep-9"),
    ("0x1.c080655723ec0p-1", "0x1.f0a7f9c1cbdfdp-5"),
    ("0x1.ec1746e8bc5bap-2", "0x1.889f708f388dap-4"),
]
# the same separations from the earlier 200-step pullback (two base orbits,
# the past one started at t - 400 theta rounded in floats, a power-of-two
# scale per step, LAPACK's SVD); they moved by at most 1.3e-12 relative
SVD_TWIST_MIN_SEPARATION = "0x1.abf4a86810b68p-9"
SVD_TWIST_SEPARATIONS = ["0x1.68e625a023d7ap-4", "0x1.ce412cbc2be9dp-7",
                         "0x1.1ea838a7daff0p-4", "0x1.3af1ea68c7ff2p-4",
                         "0x1.324c6eb2e2863p-4", "0x1.abf4a86810b68p-9",
                         "0x1.f0a7f9c1cbc2bp-5", "0x1.889f708f388d7p-4"]


def _close_to_svd(got, want_hex):
    want = float.fromhex(want_hex)
    return abs(got - want) <= 1e-10 * want


def test_weakly_twisting_schrodinger_golden(monkeypatch):
    product = schrodinger_pair()[0]
    monkeypatch.setattr(holonomy, "SHORT_PULLBACK_DEPTH", holonomy.PULLBACK_DEPTH)
    monkeypatch.setattr(certify, "TWIST_N_SAMPLES", 24)
    diag = cl.weakly_twisting(product, seed=3).diagnostics
    assert diag["n_samples"] == 24
    assert diag["min_separation"].hex() == SCHRODINGER_TWIST_MIN_SEPARATION
    assert diag["converged_fraction"] == 1.0 and diag["separated_fraction"] == 1.0
    assert diag["witnesses"] == []
    # a tolerance above most separations turns the samples into witnesses
    monkeypatch.setattr(certify, "SEP_TOL", 0.2)
    cert = cl.weakly_twisting(product, seed=3)
    diag = cert.diagnostics
    assert cert.verdict == "FAIL" and cert.margin.hex() == "-0x1.999999999999ap-5"
    assert diag["min_separation"].hex() == SCHRODINGER_TWIST_MIN_SEPARATION
    assert diag["converged_fraction"] == 1.0 and diag["separated_fraction"] == 0.0
    assert [(w["t"].hex(), w["separation"].hex())
            for w in diag["witnesses"]] == SCHRODINGER_TWIST_WITNESSES
    assert diag["deep_fraction"] == 1.0
    assert _close_to_svd(diag["min_separation"], SVD_TWIST_MIN_SEPARATION)
    for witness, want in zip(diag["witnesses"], SVD_TWIST_SEPARATIONS, strict=True):
        assert _close_to_svd(witness["separation"], want)


def test_weakly_twisting_short_rung_agrees_with_the_golden(monkeypatch):
    product = schrodinger_pair()[0]
    monkeypatch.setattr(certify, "TWIST_N_SAMPLES", 24)
    cert = cl.weakly_twisting(product, seed=3)
    diag = cert.diagnostics
    assert cert.verdict == "PASS"
    assert diag["converged_fraction"] == 1.0 and diag["separated_fraction"] == 1.0
    assert diag["witnesses"] == []
    want = float.fromhex(SCHRODINGER_TWIST_MIN_SEPARATION)
    assert abs(diag["min_separation"] - want) <= 1e-12 * want
    # every pullback converged on the short rung
    assert diag["n_pullback"] == 200 and diag["short_pullback"] == 16
    assert diag["deep_fraction"] == 0.0


@pytest.mark.parametrize("energy", [0.5, 0.0])
def test_weakly_twisting_falls_through_to_the_deep_bits(energy, monkeypatch):
    """Every pullback of map 0 of these pairs falls through the short rung
    (energy 0.5 converges at depth 100, energy 0, a zero exponent, never),
    so the certificate has the bits of the 200-step route alone."""
    product = schrodinger_pair(energy)[0]
    got = cl.weakly_twisting(product, seed=3).to_json_dict()
    monkeypatch.setattr(holonomy, "SHORT_PULLBACK_DEPTH", holonomy.PULLBACK_DEPTH)
    want = cl.weakly_twisting(product, seed=3).to_json_dict()
    assert got["diagnostics"].pop("deep_fraction") == 1.0
    assert got["diagnostics"].pop("short_pullback") == 16
    for key in ("deep_fraction", "short_pullback"):
        want["diagnostics"].pop(key)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert got["verdict"] == ("PASS" if energy else "INCONCLUSIVE")


@pytest.fixture(scope="module")
def unscaled_twist():
    product = random_tuple(2, seed=1)
    return product, cl.weakly_twisting(product, seed=3)


@pytest.mark.parametrize("factor", [1e80, 1e-80, 1e100, 1e-100, 1e160, 1e-160], ids=str)
def test_weakly_twisting_is_scale_free(factor, unscaled_twist):
    # pair products of raw steps at 1e+-80 leave the float range; the
    # pullback scales all its steps by one power of two first
    product, plain = unscaled_twist
    scaled = cl.weakly_twisting(
        cl.RandomProduct(product.angles, [factor * m for m in product.maps], product.weights),
        seed=3)
    assert (scaled.verdict, scaled.margin) == (plain.verdict, plain.margin)
    for key in ("converged_fraction", "separated_fraction", "deep_fraction"):
        assert scaled.diagnostics[key] == plain.diagnostics[key]
    want = plain.diagnostics["min_separation"]
    assert abs(scaled.diagnostics["min_separation"] - want) <= 1e-12 * want


def test_weak_certifiers_take_the_seed_by_keyword_only():
    # the second positional slot was a run size, which is a constant now;
    # an old call must not read it as the seed
    with pytest.raises(TypeError):
        cl.weakly_pinching(axis_pair(), 2000)
    with pytest.raises(TypeError):
        cl.weakly_twisting(axis_pair(), 60)


def test_pinching_d_collision_witness():
    cert = cl.pinching_d([3.0, 2.0, 1.0, 0.0])
    assert cert.verdict == "FAIL"
    witness = cert.diagnostics["witness"]
    assert witness["size"] == 2
    assert {tuple(witness["first"]), tuple(witness["second"])} == {(1, 4), (2, 3)}
    assert witness["sum_first"] == witness["sum_second"] == 3.0


def test_pinching_d_distinct_sums_pass():
    cert = cl.pinching_d([math.log(4.0), math.log(2.0), 0.0])
    assert cert.passed
    assert cert.margin > 0.1


def test_pinching_d_degenerate_and_validation():
    flat = cl.pinching_d([1.0, 1.0, 1.0])
    assert flat.verdict == "FAIL" and flat.margin == -REL_GAP
    witness = flat.diagnostics["witness"]
    assert (witness["size"], witness["first"], witness["second"]) == (1, [1], [2])
    assert flat.diagnostics["min_normalized_gap"] == 0.0
    with pytest.raises(ValueError):
        cl.pinching_d([1.0])
    with pytest.raises(ValueError):
        cl.pinching_d([1.0, math.inf])


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=5), st.floats(-3, 3),
       st.integers(0, 1000))
# the smallest normalized gap is REL_GAP itself: the margin is -8.2e-17 here
# and +2.9e-17 after the shift
@example([0.0, 1.0, 1e-6], 0.5, 0)
@settings(max_examples=80)
def test_pinching_d_shift_and_permutation_invariant(lam, shift, perm_seed):
    if max(lam) - min(lam) < 1e-3:
        return
    base = cl.pinching_d(lam)
    shifted = cl.pinching_d([x + shift for x in lam])
    assert shifted.margin == pytest.approx(base.margin, abs=1e-9)
    perm = np.random.default_rng(perm_seed).permutation(len(lam))
    mixed = cl.pinching_d([lam[i] for i in perm])
    assert mixed.margin == pytest.approx(base.margin, abs=1e-12)
    # a margin within the rounding those asserts allow can change sign, so
    # the verdicts are compared only where the base margin is clear of it
    if abs(base.margin) > 1e-9:
        assert shifted.verdict == base.verdict
    if abs(base.margin) > 1e-12:
        assert mixed.verdict == base.verdict


def test_pinching_d_scale_invariant_margin():
    lam = [1.3, 0.4, -0.2, -1.5]
    base = cl.pinching_d(lam)
    scaled = cl.pinching_d([7.5 * x for x in lam])
    assert scaled.verdict == base.verdict
    assert scaled.margin == pytest.approx(base.margin, abs=1e-12)


def test_log_integral_simple_sine():
    result = cl.log_integrability(lambda t: np.sin(2 * np.pi * t))
    assert result.finite
    assert result.estimate == pytest.approx(LOG2, abs=1e-3)
    assert sorted(result.zeros) == pytest.approx([0.0, 0.5], abs=1e-9)
    assert result.orders == [1, 1]
    assert all(result.diagnostics["transversal"])


def test_log_integral_shifted_roots():
    result = cl.log_integrability(lambda t: np.sin(2 * np.pi * (t - 0.3)))
    assert sorted(result.zeros) == pytest.approx([0.3, 0.8], abs=1e-9)
    assert result.estimate == pytest.approx(LOG2, abs=1e-3)


def test_log_integral_identically_zero_is_infinite():
    result = cl.log_integrability(lambda t: np.zeros_like(t))
    assert not result.finite
    assert result.estimate == math.inf
    assert result.diagnostics["reason"] == "g vanishes on an interval"


def test_log_integral_interval_vanishing_is_infinite():
    result = cl.log_integrability(
        lambda t: np.maximum(np.cos(2 * np.pi * t) - 0.5, 0.0))
    assert not result.finite


def test_log_integral_constant_is_exact():
    result = cl.log_integrability(lambda t: np.full_like(t, 3.7))
    assert result.estimate == abs(math.log(3.7))
    assert result.zeros == []


def test_log_integral_zero_free_matches_closed_form():
    # circle integral of log(2 + cos) is log((2 + sqrt 3) / 2)
    result = cl.log_integrability(lambda t: 2.0 + np.cos(2 * np.pi * t))
    assert result.zeros == []
    assert result.estimate == pytest.approx(0.6238107163648714, abs=1e-9)


def test_log_integral_double_zeros():
    result = cl.log_integrability(lambda t: np.sin(2 * np.pi * t) ** 2)
    assert result.finite
    assert result.orders == [2, 2]
    assert sorted(result.zeros) == pytest.approx([0.0, 0.5], abs=1e-6)
    assert result.estimate == pytest.approx(2.0 * LOG2, rel=5e-3)


def test_log_integral_validation():
    with pytest.raises(ValueError):
        cl.log_integrability(lambda t: np.array([1.0]))
    with pytest.raises(ValueError):
        cl.log_integrability(lambda t: np.where(t > 0.5, np.nan, 1.0))


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("g", [np.zeros_like, lambda t: np.sin(2 * np.pi * t) ** 2],
                         ids=["zero", "sin2"])
def test_log_integral_rejects_a_bad_scale(scale, g):
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        cl.log_integrability(g, scale=scale)


def test_log_integral_scale_is_keyword_only():
    # the second positional slot was the grid size, which is a constant now;
    # an old call must not read it as the scale
    with pytest.raises(TypeError):
        cl.log_integrability(lambda t: np.sin(2 * np.pi * t), 1024)
    with pytest.raises(TypeError):
        cl.log_integrability(lambda t: np.sin(2 * np.pi * t), grid_n=1024)


def test_log_integral_zeros_move_with_the_scale():
    # g and its scale shrunk together find the same zeros; the unit scale
    # reads the shrunk g as vanishing everywhere
    def g(t):
        return 1e-20 * np.sin(2 * np.pi * t) ** 2

    plain = cl.log_integrability(lambda t: np.sin(2 * np.pi * t) ** 2)
    shrunk = cl.log_integrability(g, scale=1e-20)
    assert shrunk.orders == plain.orders == [2, 2]
    assert shrunk.zeros == pytest.approx(plain.zeros, abs=1e-9)
    assert cl.log_integrability(g).diagnostics["reason"] == "g vanishes on an interval"


@pytest.mark.parametrize("m", [4, 5, 6])
def test_log_integral_high_order_zeros(m):
    # an order-m zero puts a run of grid points under the zero threshold,
    # which is no interval zero: rounding splits it into m roots that form
    # one group
    result = cl.log_integrability(lambda t: np.sin(2 * np.pi * t) ** m)
    assert result.finite
    assert result.orders == [m, m]
    assert sorted(result.zeros) == pytest.approx([0.0, 0.5], abs=1e-6)
    assert result.estimate == pytest.approx(m * LOG2, rel=1e-10)


def test_log_integral_of_a_zero_free_g_that_is_not_analytic():
    # 1 + |sin 2 pi t| has modes that decay like k^-2, so its series never
    # reaches rounding; it keeps clear of zero, so it still gets the
    # trapezoid estimate, against the midpoint rule on 1e6 points
    result = cl.log_integrability(lambda t: 1.0 + np.abs(np.sin(2 * np.pi * t)))
    mid = (np.arange(1_000_000) + 0.5) / 1_000_000
    assert result.zeros == []
    assert result.estimate == pytest.approx(
        np.mean(np.log1p(np.abs(np.sin(2 * np.pi * mid)))), abs=1e-8)


def test_log_integral_sign_change_of_a_g_that_is_not_analytic():
    # the zeros of g cannot be read off a series that has not converged
    result = cl.log_integrability(lambda t: np.sin(2 * np.pi * t) * (1.0 + np.abs(
        np.cos(2 * np.pi * t))))
    assert result.estimate == math.inf
    assert result.diagnostics["reason"] == "g is not resolved by its Fourier modes"


def test_log_integral_trig_polynomial_of_degree_300():
    # two planted zeros times 2 + p, p of degree 299 with |p| < 1
    rng = np.random.default_rng(3)
    k = np.arange(1, 300)
    cos, sin = rng.standard_normal((2, 299)) / (2.0 * k ** 2)

    def g(t):
        phase = 2 * np.pi * np.multiply.outer(t, k)
        p = np.cos(phase) @ cos + np.sin(phase) @ sin
        return np.sin(2 * np.pi * (t - 0.2)) * (2.0 + p)

    result = cl.log_integrability(g)
    assert result.finite
    assert result.orders == [1, 1]
    assert result.zeros == pytest.approx([0.2, 0.7], abs=1e-12)


def test_log_integral_exact_zero_on_an_interval_is_infinite():
    result = cl.log_integrability(
        lambda t: np.where((t >= 0.3) & (t <= 0.4), 0.0, np.sin(np.pi * (t - 0.3)) ** 2))
    assert result.estimate == math.inf
    assert result.diagnostics["reason"] == "g is not resolved by its Fourier modes"


def test_log_integral_small_runs_straddling_zero():
    # double zeros half a grid step before 1/2 and 1: two grid points each fall
    # under the zero threshold, and the run at 1 - h/2 wraps around t = 0
    h = 1.0 / cl.certify.SCAN_GRID_N
    result = cl.log_integrability(lambda t: 1e-5 * np.sin(2 * np.pi * (t + h / 2)) ** 2)
    assert result.zeros == pytest.approx([0.5 - h / 2, 1.0 - h / 2], abs=1e-15)
    assert result.orders == [2, 2]
    assert result.finite


@pytest.mark.parametrize("gap_cells", [0.7, 1.5, 2.5, 10, 100])
def test_log_integral_close_zero_pair(gap_cells):
    # |g| < 1 everywhere, so the integral of |log |g|| is minus Jensen's
    # log mean, 3 log 2, whatever the zeros' distance, even for a pair
    # inside one scan cell
    h = 1.0 / certify.SCAN_GRID_N
    a = 0.3 + 0.3 * h
    b = a + gap_cells * h
    result = cl.log_integrability(
        lambda t: 0.5 * np.sin(2 * np.pi * (t - a)) * np.sin(2 * np.pi * (t - b)))
    assert result.zeros == pytest.approx([a, b, a + 0.5, b + 0.5], abs=1e-9)
    assert result.orders == [1, 1, 1, 1]
    assert result.estimate == pytest.approx(3.0 * LOG2, rel=1e-10)


def _sine_product(a, roots, orders):
    """a prod_j (2 sin pi (t - r_j))^m_j, whose |log| integrates to -log a
    when |a| 2^(sum m_j) < 1."""
    def g(t):
        value = np.full(np.shape(t), a)
        for r, m in zip(roots, orders):
            value = value * (2.0 * np.sin(np.pi * (t - r))) ** m
        return value
    return g


def test_log_integral_exact_zero_on_a_node_in_a_run():
    # the order-3 zero sits exactly on a scan node, and the node after it
    # is under the zero threshold too; the run's centre, half a cell off,
    # was its zero, with order 1, and the exact zero at the node made the
    # estimate infinite
    n = certify.SCAN_GRID_N
    a = 0.023237951509037114
    roots = [652.0268312075259 / n, 14995 / n]
    result = cl.log_integrability(_sine_product(a, roots, [1, 3]))
    assert result.zeros[1] == 14995 / n
    assert result.zeros[0] == pytest.approx(roots[0], abs=1e-12)
    assert result.orders == [1, 3]
    assert result.estimate == pytest.approx(-math.log(a), rel=1e-10)


def _placed_zeros(q):
    """q zeros, one in each of q equal slots of the circle and 2 scan cells
    or more from the slot's ends, so only two zeros can be close; each sits
    on a node, 1e-13 off one, halfway between two or anywhere in its cell."""
    n = certify.SCAN_GRID_N
    slot = n // q
    offset = st.one_of(st.sampled_from([0.0, 1e-13, -1e-13, 0.5 / n]),
                       st.floats(0.0, 1.0, exclude_max=True).map(lambda u: u / n))
    return st.lists(st.tuples(st.integers(2, slot - 3), offset), min_size=q, max_size=q).map(
        lambda placed: [j * slot / n + k / n + off for j, (k, off) in enumerate(placed)])


@given(st.sampled_from([2, 4]).flatmap(_placed_zeros), st.floats(0.0, 4.0))
@settings(max_examples=100, deadline=None)
def test_log_integral_of_planted_simple_zeros_is_exact(roots, shrink):
    # a < 2^-q keeps |g| < 1, so |log |g|| = -log |g|, and each factor
    # 2 sin pi (t - r) integrates to 0 in log: the integral is -log a
    q = len(roots)
    a = 2.0 ** (-q - shrink)
    result = cl.log_integrability(_sine_product(a, roots, [1] * q))
    assert result.orders == [1] * q
    assert result.zeros == pytest.approx(roots, abs=1e-9)
    assert result.estimate == pytest.approx(-math.log(a), rel=1e-9)


def _planted_products(n, seed):
    """n products a prod_j (2 sin pi (t - r_j))^m_j with 2 or 4 uniform
    zeros r_j of orders m_j in 1..3 with an even total (the last order moves
    by one otherwise), and a = 2^-(sum m_j + U(0, 2)), so |g| < 1 and the
    integral is -log a; each with its zeros, orders, a and the scale
    a 2^(sum m_j), the largest |g| can be."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        q = int(rng.choice([2, 4]))
        roots = np.sort(rng.uniform(0.0, 1.0, q)).tolist()
        orders = rng.integers(1, 4, q)
        if orders.sum() % 2:
            orders[-1] += 1 if orders[-1] < 3 else -1
        total = int(orders.sum())
        a = 2.0 ** -(total + rng.uniform(0.0, 2.0))
        yield roots, orders.tolist(), a, a * 2.0 ** total


def test_log_integral_of_planted_products():
    # zeros of orders 2 and 3 that lie off the scan nodes, and pairs of them
    # a few dozen cells apart, where |g| between stays under the zero
    # threshold; two pairs are closer than rounding can resolve ([3, 2]
    # 4.6 cells and [3, 3] 20 cells apart), so they read as one zero.  The
    # integral is minus Jensen's log mean, which does not depend on where
    # a zero is placed: all 400 are within 1e-15 relative of -log a
    exact = 0
    for roots, orders, a, scale in _planted_products(400, seed=7):
        result = cl.log_integrability(_sine_product(a, roots, orders), scale=scale)
        assert result.finite
        if result.orders == orders and np.all(np.abs(np.subtract(result.zeros, roots)) <= 1e-8):
            exact += 1
            assert result.estimate == pytest.approx(-math.log(a), rel=2e-9)
    assert exact >= 395


def test_log_integral_order_three_pair_103_cells_apart():
    # |g| stays under ZERO_REL_TOL times the scale all the way between the
    # two zeros, which once read as g vanishing on an interval
    n = certify.SCAN_GRID_N
    a = 2.0 ** -7
    roots = [0.3 + 0.25 / n, 0.3 + 103.25 / n]
    result = cl.log_integrability(_sine_product(a, roots, [3, 3]), scale=a * 2.0 ** 6)
    assert result.orders == [3, 3]
    assert result.zeros == pytest.approx(roots, abs=1e-10)
    assert result.estimate == pytest.approx(-math.log(a), rel=1e-10)


def _planted(roots, orders, scale):
    """scale * prod_k sin(pi (t - r_k))^m_k at one point, in math arithmetic."""
    def f(t):
        value = scale
        for r, m in zip(roots, orders):
            value *= math.sin(math.pi * (t - r)) ** m
        return value
    return f


def _batched(f):
    """Vectorized f built from the scalar one, so both see the same values."""
    return lambda xs: np.array([f(x) for x in xs.tolist()])


# planted zeros at (slot + frac) / 64 for distinct slots: at least 1/64 apart
planted_roots = st.lists(st.integers(0, 63), min_size=2, max_size=4,
                         unique=True).flatmap(
    lambda slots: st.tuples(
        st.just(sorted(slots)),
        st.lists(st.floats(0.1, 0.9), min_size=len(slots), max_size=len(slots))))
bracket_sides = st.floats(1e-7, 1e-3)


@given(planted_roots, st.lists(st.sampled_from([1, 3]), min_size=4, max_size=4),
       st.lists(st.tuples(bracket_sides, bracket_sides), min_size=4, max_size=4),
       st.floats(0.1, 10.0), st.sampled_from([1e-6, 1e-9, 1e-12, 1e-15, 1e-300]))
@settings(max_examples=60, deadline=None)
def test_bisect_matches_scipy_bit_for_bit(slots_fracs, orders, sides, scale, xtol):
    slots, fracs = slots_fracs
    roots = [(k + u) / 64.0 for k, u in zip(slots, fracs)]
    orders = orders[:len(roots)]
    if sum(orders) % 2:
        # an even total order keeps the product 1-periodic, a trig polynomial
        orders[-1] += 2 if orders[-1] == 1 else -2
    f = _planted(roots, orders, scale)
    lo = [r - a for r, (a, _) in zip(roots, sides)]
    hi = [r + b for r, (_, b) in zip(roots, sides)]
    got = certify.bisect(_batched(f), np.array(lo), np.array(hi), xtol)
    want = [scipy.optimize.bisect(f, a, b, xtol=xtol) for a, b in zip(lo, hi)]
    assert got.tolist() == want


def test_bisect_exact_zero_at_an_end_or_midpoint():
    # dyadic roots: the first midpoint of [0, 1/2] and both ends hit zeros
    # exactly, and so does the sixth midpoint of the last bracket, past the
    # first call's four halvings
    f = _planted([0.25, 0.75], [1, 1], 1.0)
    lo = np.array([0.0, 0.5, 0.125, 0.25 - 2.0 ** -7])
    hi = np.array([0.5, 0.875, 0.25, 0.75 - 2.0 ** -7])
    want = [scipy.optimize.bisect(f, a, b, xtol=1e-12) for a, b in zip(lo, hi)]
    assert certify.bisect(_batched(f), lo, hi, 1e-12).tolist() == want
    with pytest.raises(ValueError):
        certify.bisect(_batched(f), np.array([0.3]), np.array([0.4]), 1e-12)


# up to eight planted zeros and a bracket around each, from 1e-9 to 1e-3 a side
many_brackets = st.lists(st.integers(0, 63), min_size=1, max_size=8,
                         unique=True).flatmap(
    lambda slots: st.tuples(
        st.just(sorted(slots)),
        st.lists(st.tuples(st.floats(0.1, 0.9), st.sampled_from([1, 3]),
                           st.floats(-9.0, -3.0), st.floats(-9.0, -3.0)),
                 min_size=len(slots), max_size=len(slots))))


@given(many_brackets, st.floats(0.1, 10.0), st.sampled_from([1e-6, 1e-12, 1e-15, 1e-300]))
@settings(max_examples=80, deadline=None)
def test_bisect_lookahead_matches_one_halving_per_call(slots_params, scale, xtol):
    # brackets of widths 2e-9 ... 2e-3 close after different numbers of
    # halvings, so the trees of one call mix brackets at every stage
    slots, params = slots_params
    roots = [(k + u) / 64.0 for k, (u, _, _, _) in zip(slots, params)]
    f = _planted(roots, [m for _, m, _, _ in params], scale)
    lo = np.array([(k + u) / 64.0 - 10.0 ** a for k, (u, _, a, _) in zip(slots, params)])
    hi = np.array([(k + u) / 64.0 + 10.0 ** b for k, (u, _, _, b) in zip(slots, params)])
    got = certify.bisect(_batched(f), lo, hi, xtol)
    assert got.tolist() == bisect_reference(_batched(f), lo, hi, xtol).tolist()


def test_bisect_stops_after_exactly_100_halvings():
    # |step| never falls below 1e-300 + 4 eps |x| while x closes in on 0,
    # so the bracket is still open after 100 halvings and returns its low end
    lo, hi = np.array([-1.0]), np.array([0.7])
    got = certify.bisect(lambda xs: xs, lo, hi, 1e-300)
    assert got.tolist() == bisect_reference(lambda xs: xs, lo, hi, 1e-300).tolist()
    assert got[0] < 0.0


def test_bisect_calls_f_once_per_four_halvings():
    # a grid cell of the default scan needs 26 halvings to reach 1e-12,
    # which take 27 calls at one halving per call
    calls = []

    def f(xs):
        calls.append(xs.size)
        return np.sin(2 * np.pi * (xs - 0.3 - 0.37 * 2.0 ** -14))

    lo = np.array([0.3])
    hi = lo + 2.0 ** -14
    got = certify.bisect(f, lo, hi, 1e-12)
    assert len(calls) <= 8
    assert got.tolist() == bisect_reference(f, lo, hi, 1e-12).tolist()


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_bisect_tests_signs_at_any_scale(scale):
    # the product of two values of size 1e-200 underflows to 0, and one of
    # size 1e200 overflows; comparing signs keeps every bracket as at scale 1
    lo, hi = np.array([0.3, 0.8]), np.array([0.7, 1.1])
    plain = lambda xs: np.sin(2 * np.pi * xs)  # noqa: E731
    want = certify.bisect(plain, lo, hi, 1e-12)
    assert certify.bisect(lambda xs: scale * plain(xs), lo, hi, 1e-12).tolist() == want.tolist()


@given(planted_roots, st.lists(st.floats(1e-5, 1e-3), min_size=8, max_size=8),
       st.floats(0.1, 10.0), st.sampled_from([1e-13, 1e-10, 1e-7]))
@settings(max_examples=60, deadline=None)
def test_minimize_scalar_finds_planted_double_zeros(slots_fracs, sides, scale, xtol):
    slots, fracs = slots_fracs
    roots = [(k + u) / 64.0 for k, u in zip(slots, fracs)]
    f = _planted(roots, [2] * len(roots), scale)
    lo = np.array([r - a for r, a in zip(roots, sides)])
    hi = np.array([r + b for r, b in zip(roots, sides[len(roots):])])
    got = certify.minimize_scalar(lambda xs: np.abs(_batched(f)(xs)), lo, hi, xtol)
    assert np.all(np.abs(got - np.array(roots)) <= xtol)


# float.hex of every TWIST_D zero, minor by minor, as the unit-circle roots
# of each minor's Fourier modes on its 32-point sample place them; bisection
# to 1e-12 placed every one within 9.1e-13 of these, and the modes on the
# 16384-point scan grid within 3.4e-16
PIPELINE_D3_ZEROS = [
    "0x1.665b55b0c8bbcp-6", "0x1.e7bcd46b6c755p-3", "0x1.06e3ca5849540p-1",
    "0x1.871c5ede8513cp-1", "0x1.0475078fb0143p-1", "0x1.72e8cb8046720p-1",
    "0x1.6b57911e05006p-4", "0x1.bcd9d88559504p-1", "0x1.e21e7019b5aedp-4",
    "0x1.d7f6b58c6da20p-3", "0x1.2a77f91d4a398p-1", "0x1.85855c3e8c47dp-1",
    "0x1.98186b3ef5587p-1", "0x1.d3d3ad1d92e50p-1", "0x1.a2c7b0c2a458dp-2",
    "0x1.9b1a7cd2c7f8dp-1", "0x1.2d8e34ad537f7p-1", "0x1.6ce294693a4dep-1",
]
PIPELINE_D3_N_ZEROS = [0, 0, 0, 0, 0, 4, 2, 2, 0, 0, 4, 2, 2, 0, 0, 2, 0, 0, 0]
TANGENCY_ZEROS = [["0x1.1d34a60108f6fp-55"], [], [], [], []]
# float.hex of every per-minor TWIST_D integral, from Jensen's formula and
# Gauss-Legendre rules on the arcs where |minor| > 1; the trapezoid rule on
# the 16384-point scan grid with each zero's singularity in closed form
# gave them within 1.3e-14 relative
PIPELINE_D3_INTEGRALS = [
    "0x1.29da50c6c5662p+0", "0x1.297bce02c29f9p+1", "0x1.69e7964085ad6p+1",
    "0x1.32c82e6f1982dp+1", "0x1.2622759a1cf70p+0", "0x1.95ecf622fccfep+1",
    "0x1.7ad33757e8ad6p+0", "0x1.2a40422cc9b60p+1", "0x1.79268eee90e60p-2",
    "0x1.1a24d35bc02e4p+1", "0x1.1543080342c76p+2", "0x1.09f4606f04f04p+2",
    "0x1.b657fb71d110cp+1", "0x1.9fcdf3a620440p-1", "0x1.0fb2a103738b6p+1",
    "0x1.5fbc5dde3aa45p+1", "0x1.e08cdeb51e028p+0", "0x1.89d4a461792a8p-1",
    "0x1.d866df2c823c4p+0",
]
TANGENCY_INTEGRALS = ["0x1.2a8ef10e6b123p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.3f641e435ce83p-1"]


def _tangency_tuple():
    # A1 = [[1 - cos 2 pi t, 1], [-1, 1]] after A0 = I: the (1, 1) entry of the
    # holonomy has a double zero at t = 0, every minor stays log-integrable
    a0 = cl.TrigMatrixMap.constant(np.eye(2))
    a1 = cl.TrigMatrixMap.from_rows(
        (2, 2), [[1.0, -1.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    return cl.RandomProduct([cl.GOLDEN_MEAN, cl.GOLDEN_MEAN], [a0, a1])


def test_twisting_d_zeros_golden():
    minors = cl.twisting_d(pipeline_tuple_d3()).diagnostics["minors"]
    assert [m["n_zeros"] for m in minors] == PIPELINE_D3_N_ZEROS
    assert [z.hex() for m in minors for z in m["zeros"]] == PIPELINE_D3_ZEROS
    assert [m["integral"].hex() for m in minors] == PIPELINE_D3_INTEGRALS
    minors = cl.twisting_d(_tangency_tuple()).diagnostics["minors"]
    assert [[z.hex() for z in m["zeros"]] for m in minors] == TANGENCY_ZEROS
    assert [m["integral"].hex() for m in minors] == TANGENCY_INTEGRALS


def test_twisting_d_d4_golden():
    # n_zeros, orders and float.hex of every zero, and the integrals, of
    # random_tuple(4, seed=1) as the unit-circle root finder gives them;
    # n_zeros and orders are those bisection and the order fit gave, and the
    # integrals keep to rounding under another evaluation order
    golden = json.loads(
        (Path(__file__).parent / "twist_d4_seed1_golden.json").read_text())
    minors = cl.twisting_d(random_tuple(4, seed=1)).diagnostics["minors"]
    assert [(m["rows"], m["cols"]) for m in minors] == [
        (g["rows"], g["cols"]) for g in golden]
    assert [m["n_zeros"] for m in minors] == [g["n_zeros"] for g in golden]
    assert [m["orders"] for m in minors] == [g["orders"] for g in golden]
    assert [[z.hex() for z in m["zeros"]] for m in minors] == [
        g["zeros"] for g in golden]
    for m, g in zip(minors, golden):
        assert m["integral"] == pytest.approx(float.fromhex(g["integral"]), rel=1e-13)


def test_twisting_d_d4_diagonal_first_golden():
    # every field but n_non_transversal of TWIST_D on
    # diagonal_first_tuple_d4(seed=1) as the unit-circle root finder gives
    # them; n_zeros and orders are those bisection and the order fit gave
    golden = json.loads(
        (Path(__file__).parent / "twist_d4_diagonal_seed1_golden.json").read_text())
    minors = cl.twisting_d(diagonal_first_tuple_d4(seed=1)).diagnostics["minors"]
    assert [{"rows": m["rows"], "cols": m["cols"], "n_zeros": m["n_zeros"],
             "zeros": [z.hex() for z in m["zeros"]], "orders": m["orders"],
             "integral": m["integral"].hex()} for m in minors] == golden


def _quad_abs_log_integral(g, zeros, degree, den=lambda t: 1.0):
    """scipy's adaptive quadrature of |log |g / den|| over the circle, g and
    den trig polynomials of at most ``degree``, den zero-free.

    The pieces are split at ``zeros`` and where |g / den| crosses 1, where
    the integrand is not smooth: the angles of the roots of g - den and
    g + den within 1e-2 of the unit circle, which np.roots finds from their
    FFT modes.  The roots that rounding moves off the circle are among
    them, and so are complex ones next to it, where |g / den| comes near 1
    off the circle and the integrand may change too fast for quad's first
    rule to see.
    """
    n = 1 << (4 * degree + 3).bit_length()
    grid = np.arange(n) / n
    num, div = (np.fft.rfft([f(t) for t in grid.tolist()])[:degree + 1] / n for f in (g, den))
    cuts = {0.0, 1.0, *zeros}
    for modes in (num - div, num + div):
        size = np.abs(modes)
        modes = modes[:np.flatnonzero(size > 1e-13 * size.max())[-1] + 1]
        roots = np.roots(np.concatenate([modes[::-1], modes[1:].conj()]))
        near = roots[np.abs(np.abs(roots) - 1.0) < 1e-2]
        cuts.update((np.angle(near) / (2.0 * np.pi) % 1.0).tolist())
    cuts = sorted(cuts)
    with warnings.catch_warnings():
        # next to a zero, roundoff stops quad short of 1e-13, far below 1e-5
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        return sum(scipy.integrate.quad(lambda t: abs(math.log(abs(g(t) / den(t)))), a, b,
                                        epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for a, b in zip(cuts, cuts[1:]))


@pytest.mark.parametrize("rows, cols", [((2, 4), (2, 3)), ((1, 3, 4), (1, 2, 3))])
def test_twisting_d_integrals_match_adaptive_quadrature(rows, cols):
    # the kinks of |log |g|| where |g| = 1 and the log singularities at the
    # zeros: Gauss-Legendre panels were off here by 6.2e-5 and 5.4e-5
    # relative, power models over the scan cells around each zero by
    # 1.6e-7 and 2.4e-7
    product = diagonal_first_tuple_d4(seed=2)
    minors = cl.twisting_d(product).diagnostics["minors"]
    got = next(m for m in minors if (tuple(m["rows"]), tuple(m["cols"])) == (rows, cols))
    index = cl.MinorIndex(rows, cols)
    want = _quad_abs_log_integral(
        lambda t: cl.minor(cl.closed_form_holonomy(product, t), index), got["zeros"],
        len(rows) * product.maps[1].degree)
    assert got["n_zeros"] == 2
    assert abs(got["integral"] - want) <= 1e-8 * want


def _near_singular_diagonal_first_tuple_d4():
    """diagonal_first_tuple_d4(1) with map 0 diag(1 + a_i cos 2 pi t), a_1 = 0.999.

    Each holonomy minor carries 1 / a0_ii(t + offset) for its rows i, whose
    Fourier modes decay only like 0.956^k, so the minor's own series
    reaches rounding near degree 700; times det A0(t + offset) it is a trig
    polynomial of degree at most 4.
    """
    base = diagonal_first_tuple_d4(seed=1)
    a0 = cl.TrigMatrixMap(np.eye(4), np.diag([0.999, 0.5, 0.3, 0.2])[None],
                          np.zeros((1, 4, 4)), group_tag=cl.DIAGONAL)
    return cl.RandomProduct(base.angles, [a0, base.maps[1]])


def test_twisting_d_non_constant_diagonal_first_map():
    # the minor's slow series once read as "not resolved", an infinite
    # integral and a false FAIL on 35 of the 69 minors
    product = _near_singular_diagonal_first_tuple_d4()
    cert = cl.twisting_d(product)
    assert cert.passed
    scan = _sign_change_counts(product)
    minors = cert.diagnostics["minors"]
    assert all(m["orders"] == [1] * m["n_zeros"] for m in minors)
    assert [m["n_zeros"] for m in minors] == [
        scan[(tuple(m["rows"]), tuple(m["cols"]))] for m in minors]
    offset = cl.homoclinic_base_holonomy(*product.angles)

    def det0(t):
        return np.linalg.det(product.maps[0].eval_many(np.array([t + offset]))[0])

    for rows, cols in [((1,), (2,)), ((1, 2, 3, 4), (1, 2, 3, 4))]:
        got = next(m for m in minors if (tuple(m["rows"]), tuple(m["cols"])) == (rows, cols))
        index = cl.MinorIndex(rows, cols)
        # the minor times det A0(t + offset) is a trig polynomial of degree
        # k deg A1 + (4 - k) deg A0
        k = len(rows)
        want = _quad_abs_log_integral(
            lambda t: cl.minor(cl.closed_form_holonomy(product, t), index) * det0(t),
            got["zeros"], k * product.maps[1].degree + (4 - k) * product.maps[0].degree, det0)
        assert abs(got["integral"] - want) <= 1e-8 * want


# Catalan's constant: the circle integral of |log 2 sin^2 pi t| is 4 G / pi
CATALAN = 0.91596559417721901505


@pytest.mark.parametrize("g, degree, scale", [
    # |g| touches 1 from below at its maximum t = 0.1, with a double zero at 0.6
    (lambda t: np.cos(np.pi * (t - 0.1)) ** 2, 1, 1.0),
    # |g| touches 1 from above at its minimum t = 0.1, with contact of order 4
    (lambda t: 1.0 + np.sin(np.pi * (t - 0.1)) ** 4, 2, 1.0),
    # |g| crosses 1 with contact of order 3 at 0.1 and 0.6, double zero at 0.85
    (lambda t: 1.0 + np.sin(2 * np.pi * (t - 0.1)) ** 3, 3, 1.0),
    # B (sin^2 pi (t - a) + e^2) cos^2 pi (t - a), B = 1e12: |g| crosses 1
    # 3.2e-7 either side of its double zero at a + 1/2, both crossings in
    # one cell of a 4096-point sign scan, and dips to 9.9 at a = 0.3
    (lambda t: 1e12 * (np.sin(np.pi * (t - 0.3)) ** 2 + math.sinh(math.pi * 1e-6) ** 2)
     * np.cos(np.pi * (t - 0.3)) ** 2, 2, 1e12),
], ids=["below", "above", "crossing", "crossings_next_to_a_double_zero"])
def test_log_integral_where_g_touches_one_tangentially(g, degree, scale):
    # the ends of the arcs where |g| > 1 are zeros of g - 1, of order above
    # 1 or close to a zero of g, which the root finder groups like any other
    # zero
    result = cl.log_integrability(g, scale=scale, degree=degree)
    want = _quad_abs_log_integral(g, result.zeros, degree)
    assert abs(result.estimate - want) <= 1e-8 * want


def test_log_integral_of_two_sin_squared_is_four_catalan_over_pi():
    # a double zero at 0, and |g| crosses 1 at 1/4 and 3/4
    result = cl.log_integrability(lambda t: 1.0 - np.cos(2 * np.pi * t), degree=1)
    assert result.orders == [2]
    assert result.diagnostics["log_mean"] == pytest.approx(-LOG2, abs=1e-15)
    assert result.estimate == pytest.approx(4.0 * CATALAN / math.pi, rel=1e-14)


def test_log_integral_complex_zero_pair_next_to_the_circle():
    # g = B (sin^2 pi (t - a) + e^2) cos^2 pi (t - a) has complex zeros at
    # a +- i asinh(e) / pi, 1e-6 from the circle, where |g| dips to
    # B e^2 = 9.9 > 1: the arc where |g| > 1 runs through them, between the
    # ends 3.2e-7 either side of the double zero at a + 1/2, so the
    # Gauss-Legendre panels must shrink around a to 1e-6
    a, big = 0.3, 1e12
    e = math.sinh(math.pi * 1e-6)

    def g(t):
        return big * (np.sin(np.pi * (t - a)) ** 2 + e * e) * np.cos(np.pi * (t - a)) ** 2

    result = cl.log_integrability(g, scale=big, degree=2)
    assert result.orders == [2]
    assert result.zeros == pytest.approx([a + 0.5], abs=1e-9)
    # quad's grid sees neither the dip at a nor where |g| crosses 1 next to
    # the zero, 3.2e-7 away, so both are cuts: a passed in, the crossings
    # found by the oracle from its roots of g - 1; without the crossings its
    # extrapolation reads |log |g|| there as log |g|, 4 x 3.2e-7 off
    want = _quad_abs_log_integral(g, result.zeros + [a], 2)
    assert abs(result.estimate - want) <= 1e-8 * want


@pytest.mark.parametrize("amplitude", [1.0, 1e-11])
def test_log_integral_rejects_a_g_above_its_declared_degree(amplitude):
    # a mode of degree K + 1 at or above ZERO_REL_TOL times the scale
    def g(t):
        return 0.5 + np.cos(2 * np.pi * t) + amplitude * np.sin(2 * np.pi * 3 * t)

    assert cl.log_integrability(g, degree=3).finite
    with pytest.raises(ValueError, match="above its declared degree 2"):
        cl.log_integrability(g, degree=2)


@pytest.mark.parametrize("degree", [-1, 2.0, "2"])
def test_log_integral_rejects_a_bad_degree(degree):
    with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
        cl.log_integrability(lambda t: np.sin(2 * np.pi * t), degree=degree)


@pytest.mark.parametrize("above", [True, False], ids=["above", "below"])
def test_abs_log_integral_of_mode_separated_num_and_den_finds_no_root(above, monkeypatch):
    # |3 + cos 2 pi t| >= 2 > 1.25 >= |1 + sin(4 pi t) / 4|, and the mode
    # bounds |c_0| +- 2 sum |c_k| show it: the integral is +-mean, with no
    # arc to find
    def big(t):
        return 3.0 + np.cos(2 * np.pi * t)

    def small(t):
        return 1.0 + 0.25 * np.sin(4 * np.pi * t)

    num, den = (big, small) if above else (small, big)
    ts = _circle_roots.sample_points(2)
    num_modes, den_modes = (_circle_roots.fourier_modes(f(ts), 2, 1e-12) for f in (num, den))
    mean = _circle_roots.zeros(num_modes, 1e-12)[3] - _circle_roots.zeros(den_modes, 1e-12)[3]

    def refuse(*args, **kwargs):
        raise AssertionError("root finder called")

    monkeypatch.setattr(certify, "zeros", refuse)
    got = certify._abs_log_integral_from_modes(num_modes, mean, 1e-12, den_modes)
    assert got == (mean if above else -mean)
    # log |num / den| keeps one sign, so |log| is analytic on the whole
    # circle, one arc for the Gauss-Legendre rule
    rule = certify._adaptive_gauss_legendre(
        lambda t: np.abs(np.log(np.abs(num(t) / den(t)))), np.zeros(1), np.ones(1))
    assert got == pytest.approx(rule, rel=1e-13)
    assert got == pytest.approx(_quad_abs_log_integral(num, [], 2, den), rel=1e-12)


def test_twisting_d_minor_of_degree_above_256():
    # a degree-160 map 1 at d = 2 makes the determinant a trig polynomial of
    # degree 320 with no zero; a fixed cap of degree 256 read it as "not
    # resolved" and failed the tuple
    rng = np.random.default_rng(11)
    k = 160
    a0 = cl.TrigMatrixMap.constant(np.diag([2.0, 0.5]), group_tag=cl.DIAGONAL)
    a1 = cl.TrigMatrixMap(3.0 * np.eye(2) + 0.25 * rng.standard_normal((2, 2)),
                          0.05 * rng.standard_normal((k, 2, 2)),
                          0.05 * rng.standard_normal((k, 2, 2)))
    product = cl.RandomProduct([cl.GOLDEN_MEAN, 0.3], [a0, a1])
    cert = cl.twisting_d(product)
    assert cert.passed
    scan = _sign_change_counts(product)
    minors = cert.diagnostics["minors"]
    assert minors[-1]["rows"] == [1, 2] and sum(m["n_zeros"] for m in minors) > 0
    assert [m["n_zeros"] for m in minors] == [
        scan[(tuple(m["rows"]), tuple(m["cols"]))] for m in minors]


def test_twisting_d_makes_no_lu_determinant_call(monkeypatch):
    product = random_tuple(4, seed=1)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.det called")

    monkeypatch.setattr(np.linalg, "det", refuse)
    assert cl.twisting_d(product).passed


def test_twisting_d_memory_stays_within_four_grid_stacks():
    product = random_tuple(4, seed=1)
    stack_bytes = certify.SCAN_GRID_N * 4 * 4 * 8
    tracemalloc.start()
    try:
        cl.twisting_d(product)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * stack_bytes


def test_twisting_d_evaluates_the_zero_free_nodes_once(monkeypatch):
    # every minor, zero-free or not, finds its zeros from the holonomy on
    # the 32 points k / 32, the smallest power of two of at least 4 K + 4
    # for the largest minor degree K = 3 x 2, evaluated once, and nowhere
    # else
    calls = []

    def counted(product, ts):
        calls.append(ts)
        return cl.closed_form_holonomy_many(product, ts)

    monkeypatch.setattr(certify, "closed_form_holonomy_many", counted)
    cert = cl.twisting_d(pipeline_tuple_d3())
    minors = cert.diagnostics["minors"]
    assert sum(m["n_zeros"] == 0 for m in minors) > 1
    assert sum(m["n_zeros"] for m in minors) > 1
    assert len(calls) == 1
    assert calls[0].tobytes() == (np.arange(32) / 32).tobytes()
    assert cert.diagnostics["grid_n"] == 32


def test_import_loads_no_scipy():
    # nor numpy.polynomial, which only the Gauss-Legendre rules once needed
    code = ("import sys, cocyclelab; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('numpy.polynomial')))")
    package_root = str(Path(cl.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=package_root))
    assert done.stdout.strip() == "[]"


def _sign_change_counts(product, grid_n=1 << 17):
    ts = np.arange(grid_n) / grid_n
    hol = cl.closed_form_holonomy_many(product, ts)
    counts = {}
    for index in cl.all_minor_indices(product.dim):
        rows = [r - 1 for r in index.rows]
        cols = [c - 1 for c in index.cols]
        sub = hol[:, rows][:, :, cols]
        vals = np.linalg.det(sub) if len(rows) > 1 else sub[:, 0, 0]
        signs = np.sign(vals)
        counts[(index.rows, index.cols)] = int(np.sum(signs != np.roll(signs, 1)))
    return counts


def test_twisting_d_pipeline_tuple_passes():
    product = pipeline_tuple_d3()
    cert = cl.twisting_d(product)
    assert cert.kind == "TWIST_D" and cert.passed
    assert cert.margin == 0.0
    minors = cert.diagnostics["minors"]
    assert len(minors) == 19
    assert all(math.isfinite(entry["integral"]) for entry in minors)
    scan = _sign_change_counts(product)
    for entry in minors:
        assert entry["n_zeros"] == scan[(tuple(entry["rows"]), tuple(entry["cols"]))]


@pytest.mark.parametrize("factors", [1e-60, 1e-8, 1e-3, 1e4, 1e5, 1e8, 1e100,
                                     (1e6, 1.0, 1e-6)],
                         ids=str)
def test_twisting_d_is_invariant_under_rescaling_the_first_map(factors):
    # Rescaling the rows of A_0 multiplies every k x k holonomy minor by a
    # constant, which cannot change twisting; the zero threshold of each
    # minor moves with the Hadamard bound of its rows.
    product = pipeline_tuple_d3()
    plain = cl.twisting_d(product).diagnostics["minors"]
    maps = list(product.maps)
    maps[0] = cl.rescale_diagonal(maps[0], np.broadcast_to(factors, 3))
    scaled = cl.RandomProduct(product.angles, maps)
    cert = cl.twisting_d(scaled)
    assert cert.passed
    minors = cert.diagnostics["minors"]
    assert [m["n_zeros"] for m in minors] == [m["n_zeros"] for m in plain]
    assert [m["orders"] for m in minors] == [m["orders"] for m in plain]


# (map 0, map 1) scaled by (2^e0, 2^e1): every holonomy row lies outside
# 2^+-64, and the first five once raised or warned: the Hadamard bound of
# three rows overflowed to inf or underflowed to 0, or np.roots overflowed
WIDE_SCALINGS = [(0, 350), (-300, 150), (0, -350), (0, -340), (40, -300),
                 (0, 330), (0, -330), (0, 340), (0, 70), (0, -70)]


def _quad_log_mean(product, entry):
    """scipy's circle integral of log |minor| for a TWIST_D minor ``entry``,
    split at its zeros."""
    index = cl.MinorIndex(entry["rows"], entry["cols"])
    cuts = [0.0, *entry["zeros"], 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        return sum(scipy.integrate.quad(
            lambda t: math.log(abs(cl.minor(cl.closed_form_holonomy(product, t), index))),
            a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0] for a, b in zip(cuts, cuts[1:]))


@pytest.fixture(scope="module")
def pipeline_d3_log_means():
    """TWIST_D's minors of pipeline_tuple_d3() and scipy's circle integral
    of log |minor| for each, split at its zeros."""
    product = pipeline_tuple_d3()
    cert = cl.twisting_d(product)
    return cert, [_quad_log_mean(product, m) for m in cert.diagnostics["minors"]]


@pytest.mark.parametrize("e0, e1", WIDE_SCALINGS, ids=str)
def test_twisting_d_at_widely_different_map_scales(e0, e1, pipeline_d3_log_means):
    plain, log_means = pipeline_d3_log_means
    product = pipeline_tuple_d3()
    maps = [math.ldexp(1.0, e0) * product.maps[0], math.ldexp(1.0, e1) * product.maps[1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = cl.twisting_d(cl.RandomProduct(product.angles, maps))
    assert cert.verdict == plain.verdict
    minors, plain_minors = cert.diagnostics["minors"], plain.diagnostics["minors"]
    assert [m["n_zeros"] for m in minors] == [m["n_zeros"] for m in plain_minors]
    assert [m["orders"] for m in minors] == [m["orders"] for m in plain_minors]
    # a k x k minor is 2^(k (e1 - e0)) times the unscaled one, so
    # log |minor| keeps one sign but within 2^-70 of its zeros
    for m, log_mean in zip(minors, log_means):
        want = abs(len(m["rows"]) * (e1 - e0) * LOG2 + log_mean)
        assert abs(m["integral"] - want) <= 1e-8 * want


# (map 0, map 1) scaled by (2^e0, 2^e1), and a minor of each tuple whose
# integral is checked with the determinant's.  Map 1 at 2^17 to 2^61 is
# where a dense scan once read a false FAIL, a NaN or -inf integral or a
# RuntimeWarning: the points where |minor| = 1 lie within about 2^-17 to
# 2^-61 of its zeros, and rounding split them.  The wide scalings of a
# non-constant A0 were slow there.
COVARIANCE_WIDE = [(0, 200), (0, -200), (0, 300), (0, -400), (-100, 200)]
COVARIANCE_CASES = {
    "pipeline_d3": (pipeline_tuple_d3, ((3,), (1,)), [(0, 12), (0, 55)]),
    "diagonal_d4": (lambda: diagonal_first_tuple_d4(seed=1), ((1,), (2,)),
                    [(0, 28), (0, 55), (0, 56)]),
    "near_singular_d4": (_near_singular_diagonal_first_tuple_d4, ((1,), (2,)),
                         [(0, 28), (0, 49), (0, 55), (0, 60)]),
}


@pytest.mark.parametrize("case", list(COVARIANCE_CASES))
def test_twisting_d_is_covariant_under_power_of_two_scalings(case):
    make, checked, scalings = COVARIANCE_CASES[case]
    product = make()
    plain = cl.twisting_d(product)
    plain_minors = plain.diagnostics["minors"]
    # the integrals of the checked minor and the determinant
    entries = [m for m in plain_minors if (tuple(m["rows"]), tuple(m["cols"])) == checked]
    entries.append(plain_minors[-1])
    log_means = [_quad_log_mean(product, m) for m in entries]
    for e0, e1 in scalings + COVARIANCE_WIDE:
        maps = [math.ldexp(1.0, e0) * product.maps[0], math.ldexp(1.0, e1) * product.maps[1]]
        scaled = cl.RandomProduct(product.angles, maps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = cl.twisting_d(scaled)
        assert cert.verdict == plain.verdict
        minors = cert.diagnostics["minors"]
        assert [m["n_zeros"] for m in minors] == [m["n_zeros"] for m in plain_minors]
        assert [m["orders"] for m in minors] == [m["orders"] for m in plain_minors]
        assert all(math.isfinite(m["integral"]) for m in minors)
        for entry, log_mean in zip(entries, log_means):
            got = next(m for m in minors if (m["rows"], m["cols"]) == (entry["rows"],
                                                                       entry["cols"]))
            # the minor is 2^p times the unscaled one, p = k (e1 - e0)
            power = len(entry["rows"]) * (e1 - e0)
            if not 0 < power < 28:
                # |minor| crosses 1, if at all, within about 2^-p / |g'| of
                # each zero, which moves the integral off
                # |int log |minor|| by about 4 sum 2^-p / |g'|: 4e-8 here
                # at p = 28, under 3e-9 of it
                want = abs(power * LOG2 + log_mean)
            else:
                # only the pipeline tuple, whose A0 is constant, has p
                # below 28: its minor is a trig polynomial of degree k deg A1
                index = cl.MinorIndex(entry["rows"], entry["cols"])
                want = _quad_abs_log_integral(
                    lambda t: cl.minor(cl.closed_form_holonomy(scaled, t), index),
                    entry["zeros"], len(entry["rows"]) * product.maps[1].degree)
            assert abs(got["integral"] - want) <= 1e-8 * want


def test_twisting_d_trivial_holonomy_fails():
    a0 = cl.TrigMatrixMap.constant(np.diag([2.0, 0.5]), group_tag=cl.SL2)
    product = cl.RandomProduct([cl.GOLDEN_MEAN, 0.3], [a0, a0])
    cert = cl.twisting_d(product)
    assert cert.verdict == "FAIL"
    assert cert.diagnostics["witness"] is not None
    assert not cert.passed
    # the two off-diagonal entries vanish identically, and nothing else does
    assert cert.margin == -2.0
    infinite = [(m["rows"], m["cols"]) for m in cert.diagnostics["minors"]
                if not math.isfinite(m["integral"])]
    assert infinite == [([1], [2]), ([2], [1])]
    assert cert.diagnostics["max_non_transversal"] == 0


def test_twisting_d_log_integrable_tangency_passes():
    cert = cl.twisting_d(_tangency_tuple())
    assert cert.kind == "TWIST_D" and cert.passed
    assert cert.margin == 0.0
    assert cert.diagnostics["max_non_transversal"] == 1
    assert cert.diagnostics["witness"] is None
    tangent = [m for m in cert.diagnostics["minors"] if m["n_non_transversal"]]
    assert [(m["rows"], m["cols"]) for m in tangent] == [([1], [1])]
    assert tangent[0]["orders"] == [2]
    assert all(math.isfinite(m["integral"]) for m in cert.diagnostics["minors"])
