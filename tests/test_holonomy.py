"""Holonomy quotients, the closed form, and Oseledets direction fields."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab as cl
from cocyclelab import holonomy
from util import (SILVER, axis_pair, diagonal_first_tuple_d4,
                  inverse_word_product_reference, pipeline_tuple_d3, random_tuple,
                  schrodinger_pair, unstable_holonomy_offset_reference)


def test_projective_distance_basic():
    assert cl.projective_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert cl.projective_distance([1.0, 0.0], [2.0, 0.0]) == 0.0
    assert cl.projective_distance([1.0, 1.0], [-3.0, -3.0]) == 0.0
    d = cl.projective_distance([1.0, 0.0], [1.0, 1.0])
    assert d == pytest.approx(np.sin(np.pi / 4), abs=1e-15)


@pytest.mark.parametrize("make", [list, tuple, np.array])
def test_projective_distance_is_a_python_float(make):
    for u, v in (([3.0, 4.0], [1.0, 0.0]), ([3, 4], [1, 0]),
                 ([np.float64(3.0), np.float64(4.0)], [1.0, 0.0])):
        got = cl.projective_distance(make(u), make(v))
        assert type(got) is float and got == 0.8


@pytest.mark.parametrize("make", [list, tuple, np.array])
def test_projective_distance_of_a_zero_vector_raises(make):
    with pytest.raises(ValueError, match="zero vector"):
        cl.projective_distance(make([0.0, 0.0]), make([1.0, 0.0]))
    with pytest.raises(ValueError, match="zero vector"):
        cl.projective_distance(make([1.0, 0.0]), make([0.0, -0.0]))


@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=2),
    st.lists(st.floats(-10, 10), min_size=2, max_size=2),
    st.floats(0.1, 50),
)
@settings(max_examples=60)
def test_projective_distance_scale_invariant(u, v, c):
    if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
        return
    base = cl.projective_distance(u, v)
    assert 0.0 <= base <= 1.0 + 1e-12
    assert cl.projective_distance(np.multiply(c, u), v) == pytest.approx(base, abs=1e-9)
    assert cl.projective_distance(u, np.multiply(-c, v)) == pytest.approx(base, abs=1e-9)
    assert cl.projective_distance(v, u) == pytest.approx(base, abs=1e-12)


def test_stable_holonomy_flip_equals_closed_form():
    product = random_tuple(2, seed=11)
    x_tail = cl.single_flip_word(6)
    y_tail = cl.constant_word(6)
    offset = cl.stable_holonomy_offset(product.angles, x_tail, y_tail)
    for t in (0.0, 0.37, 0.925):
        got = cl.linear_holonomy(product, x_tail, y_tail, t, cl.rotate(t, offset))
        np.testing.assert_allclose(got, cl.closed_form_holonomy(product, t),
                                   atol=1e-12)


def test_identical_tails_give_identity():
    product = random_tuple(2, seed=3)
    word = cl.constant_word(5)
    same = cl.linear_holonomy(product, word, word, 0.4, 0.4, side="stable")
    np.testing.assert_allclose(same, np.eye(2), atol=1e-14)
    back = cl.linear_holonomy(product, word, word, 0.4, 0.4, side="unstable")
    np.testing.assert_allclose(back, np.eye(2), atol=1e-14)


def test_base_point_mismatch_rejected():
    product = random_tuple(2, seed=5)
    x_tail = cl.single_flip_word(4)
    y_tail = cl.constant_word(4)
    offset = cl.stable_holonomy_offset(product.angles, x_tail, y_tail)
    with pytest.raises(ValueError):
        cl.linear_holonomy(product, x_tail, y_tail, 0.2, cl.rotate(0.2, offset + 0.01))
    with pytest.raises(ValueError):
        cl.linear_holonomy(product, x_tail, y_tail, 0.2, 0.2, side="sideways")
    # the unstable side: A_0(u_y) A_1(u_x)^-1 one step back, or a mismatch error
    offset = cl.stable_holonomy_offset(-product.angles, x_tail, y_tail)
    t_y = cl.rotate(0.2, offset)
    got = cl.linear_holonomy(product, x_tail, y_tail, 0.2, t_y, side="unstable")
    u_x, u_y = cl.rotate(0.2, -product.angles[1]), cl.rotate(t_y, -product.angles[0])
    want = product.maps[0].eval(u_y) @ np.linalg.inv(product.maps[1].eval(u_x))
    np.testing.assert_allclose(got, want, atol=1e-12)
    with pytest.raises(ValueError, match="unstable"):
        cl.linear_holonomy(product, x_tail, y_tail, 0.2, cl.rotate(t_y, 0.01),
                           side="unstable")


tail_symbols = st.lists(st.integers(0, 2), max_size=6)


@given(x_head=tail_symbols, y_head=tail_symbols,
       common=st.lists(st.integers(0, 2), min_size=1, max_size=3),
       angles=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3,
                       max_size=3),
       t_x=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       d=st.sampled_from([2, 3]), seed=st.integers(0, 20))
@settings(max_examples=150, deadline=None)
def test_unstable_holonomy_is_stable_on_reversed_base(x_head, y_head, common,
                                                      angles, t_x, d, seed):
    """The reversed-base route against the product of inverses it replaced."""
    size = max(len(x_head), len(y_head))
    x_back = x_head + [2] * (size - len(x_head)) + common
    y_back = y_head + [2] * (size - len(y_head)) + common
    offset = cl.stable_holonomy_offset(-np.asarray(angles), x_back, y_back)
    assert offset.hex() == unstable_holonomy_offset_reference(
        angles, x_back, y_back).hex()

    product = cl.RandomProduct(angles, random_tuple(d, seed, n_maps=3).maps)
    t_y = cl.rotate(t_x, unstable_holonomy_offset_reference(
        product.angles, x_back, y_back))
    got = cl.linear_holonomy(product, x_back, y_back, t_x, t_y, side="unstable")
    n = cl.forward_agreement_index(x_back, y_back)
    px = inverse_word_product_reference(product, x_back[:n], t_x)
    py = inverse_word_product_reference(product, y_back[:n], t_y)
    want = np.linalg.solve(py, px)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_composed_equals_closed_form_random_tuples():
    ts = np.linspace(0.0, 1.0, 7, endpoint=False)
    for k in range(10):
        product = random_tuple(2 + k % 2, seed=100 + k)
        closed = cl.closed_form_holonomy_many(product, ts)
        for t, want in zip(ts, closed):
            got = cl.composed_holonomy(product, t)
            np.testing.assert_allclose(got, want, atol=1e-10)


def test_closed_form_many_matches_scalar_loop():
    product = random_tuple(3, seed=42)
    ts = np.array([0.0, 0.123, 0.5, 0.988])
    many = cl.closed_form_holonomy_many(product, ts)
    # batch evaluation may reorder the mode sum, so allow an ulp of drift
    for t, h in zip(ts, many):
        np.testing.assert_allclose(cl.closed_form_holonomy(product, t), h,
                                   atol=1e-15)


def test_schrodinger_holonomy_is_unipotent():
    product, (u0, u1) = schrodinger_pair(energy=3.0)
    delta = cl.homoclinic_base_holonomy(product.angles[0], product.angles[1])
    ts = np.linspace(0.0, 1.0, 33, endpoint=False)
    hs = cl.closed_form_holonomy_many(product, ts)
    np.testing.assert_allclose(hs[:, 0, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(hs[:, 1, 1], 1.0, atol=1e-12)
    np.testing.assert_allclose(hs[:, 0, 1], 0.0, atol=1e-12)
    # lower-left entry is the potential difference between paired fibers
    want = u1.eval_many(ts) - u0.eval_many(cl.rotate(ts, delta))
    np.testing.assert_allclose(hs[:, 1, 0], want, atol=1e-12)


def test_equal_maps_equal_angles_give_identity():
    a0 = random_tuple(2, seed=7).maps[0]
    product = cl.RandomProduct([0.3, 0.3], [a0, a0])
    for t in (0.1, 0.6):
        np.testing.assert_allclose(cl.closed_form_holonomy(product, t),
                                   np.eye(2), atol=1e-12)


def test_holonomy_is_lipschitz_in_the_flipped_map():
    """The closed form is linear in the second map, with an explicit bound."""
    product = random_tuple(2, seed=21)
    rng = np.random.default_rng(0)
    bump = cl.TrigPolynomial(0.5 * rng.standard_normal((2, 2)),
                             0.3 * rng.standard_normal((1, 2, 2)),
                             0.3 * rng.standard_normal((1, 2, 2)))
    eps = 1e-4
    moved = product.maps[1] + eps * bump
    shifted = cl.RandomProduct(product.angles, [product.maps[0], moved])

    ts = np.linspace(0.0, 1.0, 101, endpoint=False)
    base = cl.closed_form_holonomy_many(product, ts)
    new = cl.closed_form_holonomy_many(shifted, ts)
    delta = cl.homoclinic_base_holonomy(product.angles[0], product.angles[1])
    inv_norms = [np.linalg.norm(np.linalg.inv(m), 2)
                 for m in product.maps[0].eval_many(cl.rotate(ts, delta))]
    bump_norms = [np.linalg.norm(m, 2) for m in bump.eval_many(ts)]
    bound = max(inv_norms) * eps * max(bump_norms)
    worst = max(np.linalg.norm(n - b, 2) for n, b in zip(new, base))
    assert worst <= bound * (1.0 + 1e-9)


DIAGONAL_FIRST = {"d3": pipeline_tuple_d3,
                  "d4": lambda: diagonal_first_tuple_d4(seed=1)}
SOLVED_FIRST = {"general-d3": lambda: random_tuple(3, seed=1),
                "schrodinger": lambda: schrodinger_pair()[0]}


@pytest.mark.parametrize("build", DIAGONAL_FIRST.values(), ids=DIAGONAL_FIRST)
def test_diagonal_first_closed_form_equals_composed(build):
    product = build()
    assert product.maps[0].group_tag == cl.DIAGONAL
    ts = np.linspace(0.0, 1.0, 64, endpoint=False)
    closed = cl.closed_form_holonomy_many(product, ts)
    for t, want in zip(ts, closed):
        np.testing.assert_allclose(cl.composed_holonomy(product, t), want,
                                   rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("build", [*DIAGONAL_FIRST.values(), *SOLVED_FIRST.values()],
                         ids=[*DIAGONAL_FIRST, *SOLVED_FIRST])
def test_other_first_maps_keep_the_lu_solve(build, monkeypatch):
    # a DIAGONAL first map takes the one batched solve as any other does
    product = build()
    shapes = []
    solve = np.linalg.solve

    def counted(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    cl.closed_form_holonomy_many(product, np.linspace(0.0, 1.0, 5, endpoint=False))
    assert shapes == [(5, product.dim, product.dim)]


@pytest.mark.parametrize("build", [*DIAGONAL_FIRST.values(), *SOLVED_FIRST.values()],
                         ids=[*DIAGONAL_FIRST, *SOLVED_FIRST])
def test_closed_form_of_no_points_is_empty(build):
    product = build()
    hs = cl.closed_form_holonomy_many(product, np.array([]))
    assert hs.shape == (0, product.dim, product.dim)


def _singular_first_map_pair(group_tag):
    """diag(sin(2 pi (t - 1/2048)), 1), then a constant map.

    The first map is exactly singular at t = 1/2048, between two points of
    the 1024-point certification grid, so certification accepts it.
    """
    phase = 2.0 * np.pi / 2048
    a0 = cl.TrigMatrixMap(np.diag([0.0, 1.0]), [np.diag([-np.sin(phase), 0.0])],
                          [np.diag([np.cos(phase), 0.0])], group_tag=group_tag)
    a1 = cl.TrigMatrixMap.constant([[2.0, 1.0], [1.0, 1.0]])
    return cl.RandomProduct([cl.GOLDEN_MEAN, SILVER], [a0, a1])


@pytest.mark.parametrize("group_tag", [cl.DIAGONAL, cl.GENERAL])
def test_exactly_singular_first_map_raises_on_both_routes(group_tag):
    product = _singular_first_map_pair(group_tag)
    delta = cl.homoclinic_base_holonomy(product.angles[0], product.angles[1])
    t = cl.rotate(1.0 / 2048, -delta)
    assert cl.rotate(np.array([t]), delta)[0] == 1.0 / 2048
    assert product.maps[0].eval(1.0 / 2048)[0, 0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            cl.closed_form_holonomy_many(product, [0.1, t, 0.2])


def test_oseledets_axes_for_constant_diagonal():
    product = axis_pair()
    res = cl.oseledets_directions(product.angles[0], product.maps[0], 0.3)
    assert res.converged
    assert res.residual <= 1e-12
    assert cl.projective_distance(res.e_plus, [1.0, 0.0]) <= 1e-12
    assert cl.projective_distance(res.e_minus, [0.0, 1.0]) <= 1e-12


def test_oseledets_contracting_axis_on_the_diagonal():
    """The contracting axis is (1, 1)/sqrt(2), a natural start vector."""
    rot = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    mat_map = cl.TrigMatrixMap.constant(rot @ np.diag([0.5, 2.0]) @ rot.T,
                                        group_tag=cl.SL2)
    res = cl.oseledets_directions(cl.GOLDEN_MEAN, mat_map, 0.3)
    assert res.converged
    assert cl.projective_distance(res.e_plus, [-1.0, 1.0]) <= 1e-12
    assert cl.projective_distance(res.e_minus, [1.0, 1.0]) <= 1e-12


def test_oseledets_deep_pullback_does_not_overflow(monkeypatch):
    """The unscaled products of the 200-step rung here are about 1e1200."""
    monkeypatch.setattr(holonomy, "SHORT_PULLBACK_DEPTH", holonomy.PULLBACK_DEPTH)
    mat_map = cl.TrigMatrixMap.constant(np.diag([1e3, 1e-3]), group_tag=cl.DIAGONAL)
    res = cl.oseledets_directions(cl.GOLDEN_MEAN, mat_map, 0.7)
    assert res.converged and res.depth == holonomy.PULLBACK_DEPTH
    assert cl.projective_distance(res.e_plus, [1.0, 0.0]) <= 1e-12
    assert cl.projective_distance(res.e_minus, [0.0, 1.0]) <= 1e-12


@pytest.mark.parametrize("depth", [holonomy.SHORT_PULLBACK_DEPTH, holonomy.PULLBACK_DEPTH])
def test_pullback_steps_lie_on_the_exact_orbit(depth, monkeypatch):
    """Step j of a pullback at t sits at t + (j - 2n) theta mod 1 to within
    an ulp of 1, where t - 2n theta rounded in floats drifted by up to
    1.4e-14.  t = 0.2471 puts the orbit's start below 1/16."""
    orbits = []
    base_orbit = holonomy.base_orbit

    def recording(angles, word, t):
        orbits.append(base_orbit(angles, word, t))
        return orbits[-1]

    product, _ = schrodinger_pair()
    angle, mat_map = product.angles[0], product.maps[0]
    monkeypatch.setattr(holonomy, "base_orbit", recording)
    for t in (0.0, 0.05, 0.2471, 0.41, 0.77):
        holonomy._pullback(angle, mat_map, t, depth)
        (orbit,) = orbits
        orbits.clear()
        assert len(orbit) == 4 * depth + 1
        for j, point in enumerate(orbit.tolist()):
            exact = (Fraction(t) + (j - 2 * depth) * Fraction(angle)) % 1
            assert abs(Fraction(point) - exact) <= Fraction(2.0 ** -52)


@pytest.mark.parametrize("diagonal", [(1e160, 1e-140), (5e-309, 4e-309)], ids=str)
@pytest.mark.parametrize("deep", [False, True])
def test_oseledets_axes_at_the_ends_of_the_float_range(diagonal, deep, monkeypatch):
    """Entries 300 decades apart, and a largest entry below 2^-1024, whose
    power-of-two scale 2^1024 is not a float."""
    if deep:
        monkeypatch.setattr(holonomy, "SHORT_PULLBACK_DEPTH", holonomy.PULLBACK_DEPTH)
    mat_map = cl.TrigMatrixMap.constant(np.diag(diagonal), group_tag=cl.DIAGONAL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = cl.oseledets_directions(cl.GOLDEN_MEAN, mat_map, 0.7)
    assert res.converged and res.residual == 0.0
    assert res.depth == (holonomy.PULLBACK_DEPTH if deep else holonomy.SHORT_PULLBACK_DEPTH)
    assert cl.projective_distance(res.e_plus, [1.0, 0.0]) <= 1e-15
    assert cl.projective_distance(res.e_minus, [0.0, 1.0]) <= 1e-15


@pytest.mark.parametrize("power", [530, -530])
@pytest.mark.parametrize("energy", [3.0, 0.5])
def test_oseledets_directions_of_a_rescaled_map_keep_their_bits(power, energy):
    """The pullback's one power-of-two scale is exact, so a map scaled by
    2^+-530 gives the unscaled map's bits on both rungs (energy 0.5 falls
    through to the deep one)."""
    product, _ = schrodinger_pair(energy)
    angle, plain = product.angles[0], product.maps[0]
    scaled = cl.TrigMatrixMap(np.ldexp(plain.const, power), np.ldexp(plain.cos_coeffs, power),
                              np.ldexp(plain.sin_coeffs, power))
    for t in (0.05, 0.41, 0.77):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cl.oseledets_directions(angle, scaled, t)
        want = cl.oseledets_directions(angle, plain, t)
        assert got.converged and got.depth == want.depth
        assert want.depth == (holonomy.SHORT_PULLBACK_DEPTH if energy == 3.0
                              else holonomy.PULLBACK_DEPTH)
        assert got.e_plus.tobytes() == want.e_plus.tobytes()
        assert got.e_minus.tobytes() == want.e_minus.tobytes()
        assert got.residual.hex() == want.residual.hex()


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(-15.0, 0.0))
@settings(max_examples=200, deadline=None)
def test_closed_form_singular_vectors_match_svd(seed, n, log_noise):
    """On unit-norm products of n factors, the first one 10^log_noise from
    rank 1, the closed-form directions sit within a few eps over the
    relative singular gap of LAPACK's."""
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((n, 2, 2))
    factors[0] = np.outer(*rng.standard_normal((2, 2))) + 10.0 ** log_noise * factors[0]
    mat = holonomy._unit_products(factors)
    left, sigma, right = np.linalg.svd(mat)
    gap = (sigma[0] - sigma[1]) / sigma[0]
    if gap == 0.0:
        return
    tol = 8.0 * np.finfo(float).eps / gap
    entries = mat.ravel().tolist()
    assert cl.projective_distance(holonomy._top_left_direction(*entries), left[:, 0]) <= tol
    assert cl.projective_distance(holonomy._bottom_right_direction(*entries), right[-1]) <= tol


@given(st.integers(1, 9), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_unit_products_match_multi_dot(n, d, seed):
    rng = np.random.default_rng(seed)
    mats = 2.0 * np.eye(d) + rng.standard_normal((2, n, d, d))
    got = holonomy._unit_products(mats)
    assert got.shape == (2, d, d)
    for stack, product in zip(mats, got):
        want = stack[0] if n == 1 else np.linalg.multi_dot(list(stack[::-1]))
        # rounding is relative to the product of the factors' norms
        scale = np.prod(np.linalg.norm(stack, axis=(1, 2))) / np.linalg.norm(want)
        np.testing.assert_allclose(product, want / np.linalg.norm(want),
                                   rtol=0.0, atol=1e-12 * scale)


def _linalg_norm_unit_products(mats):
    # the np.linalg.norm / always-concatenate reduction _unit_products replaced
    stack = np.asarray(mats, dtype=float)
    while stack.shape[-3] > 1:
        n = stack.shape[-3]
        pairs = np.matmul(stack[..., 1::2, :, :], stack[..., 0:n - 1:2, :, :])
        pairs /= np.linalg.norm(pairs, axis=(-2, -1), keepdims=True)
        stack = np.concatenate([pairs, stack[..., n - n % 2:, :, :]], axis=-3)
    product = stack[..., 0, :, :]
    return product / np.linalg.norm(product, axis=(-2, -1), keepdims=True)


@given(st.integers(1, 40), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_unit_products_match_linalg_norm_bit_for_bit(n, d, seed):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((4, n, d, d)) * np.exp(rng.uniform(-20, 20, (4, n, 1, 1)))
    got = holonomy._unit_products(mats)
    assert got.tobytes() == _linalg_norm_unit_products(mats).tobytes()


def test_oseledets_directions_are_equivariant():
    product, _ = schrodinger_pair(energy=3.0)
    angle, mat_map = product.angles[0], product.maps[0]
    for t in (0.05, 0.41, 0.77):
        here = cl.oseledets_directions(angle, mat_map, t)
        there = cl.oseledets_directions(angle, mat_map, cl.rotate(t, angle))
        assert here.converged and there.converged
        a = mat_map.eval(t)
        assert cl.projective_distance(a @ here.e_plus, there.e_plus) <= 1e-6
        assert cl.projective_distance(a @ here.e_minus, there.e_minus) <= 1e-6


def test_oseledets_validation():
    product = random_tuple(3, seed=1)
    with pytest.raises(ValueError):
        cl.oseledets_directions(0.5, product.maps[0], 0.1)


def test_oseledets_field_csv_round_trip(tmp_path):
    product, _ = schrodinger_pair(energy=3.0)
    ts = np.linspace(0.0, 1.0, 5, endpoint=False)
    field = cl.oseledets_field(product.angles[0], product.maps[0], ts)
    path = tmp_path / "field.csv"
    field.to_csv(path, provenance={"seed": 0})
    table = cl.ResultTable.from_csv(path)
    assert table.columns == ["t", "e_plus_angle", "e_minus_angle", "residual",
                             "converged"]
    assert table.provenance["seed"] == 0
    angles = np.mod(np.arctan2(field.e_plus[:, 1], field.e_plus[:, 0]), np.pi)
    got = np.array([row[1] for row in table.rows])
    np.testing.assert_array_equal(got, angles)
    assert [row[4] for row in table.rows] == [int(c) for c in field.converged]


# float.hex of (e_plus, e_minus, residual) on the Schrodinger pair's first
# map at the 200-step pullback (one exactly placed base orbit, one
# power-of-two scale, closed-form singular vectors): that rung must stay
# bit for bit
OSELEDETS_GOLDEN = {
    0.0: (["0x1.e881666fdec59p-1", "0x1.32a2cfc0c01a5p-2"],
          ["0x1.dfa910a7132d8p-2", "0x1.c45b002fce33ep-1"], "0x0.0p+0"),
    0.3: (["0x1.e2972fc60fc5ep-1", "0x1.560dfaf267e03p-2"],
          ["0x1.5e325eb788f9dp-2", "0x1.e120e036ab03ap-1"], "0x1.0000000000000p-54"),
    0.7734: (["0x1.d3b99f48fb4b3p-1", "0x1.a08b49028178ap-2"],
             ["0x1.74ae4de1063eap-2", "0x1.dce31485cfe57p-1"], "0x1.0000000000000p-54"),
}
# (e_plus, e_minus) at the same points from the earlier 200-step pullback
# (two base orbits, the past one started at t - 400 theta rounded in
# floats, a power-of-two scale per step, LAPACK's SVD); they moved by at
# most 6.1e-15
OSELEDETS_SVD_GOLDEN = {
    0.0: (["-0x1.e881666fdec58p-1", "-0x1.32a2cfc0c01a4p-2"],
          ["0x1.dfa910a7132d9p-2", "0x1.c45b002fce33ep-1"]),
    0.3: (["-0x1.e2972fc60fc50p-1", "-0x1.560dfaf267e5cp-2"],
          ["-0x1.5e325eb788f9ap-2", "-0x1.e120e036ab039p-1"]),
    0.7734: (["-0x1.d3b99f48fb4cap-1", "-0x1.a08b490281727p-2"],
             ["-0x1.74ae4de1063e9p-2", "-0x1.dce31485cfe58p-1"]),
}


@pytest.mark.parametrize("t", sorted(OSELEDETS_GOLDEN))
def test_oseledets_directions_golden(t, monkeypatch):
    # a short rung as deep as the deep one sends every point down the
    # 200-step route
    monkeypatch.setattr(holonomy, "SHORT_PULLBACK_DEPTH", holonomy.PULLBACK_DEPTH)
    product, _ = schrodinger_pair()
    got = cl.oseledets_directions(product.angles[0], product.maps[0], t)
    e_plus, e_minus, residual = OSELEDETS_GOLDEN[t]
    assert [x.hex() for x in got.e_plus] == e_plus
    assert [x.hex() for x in got.e_minus] == e_minus
    assert got.residual.hex() == residual and got.converged
    assert got.depth == holonomy.PULLBACK_DEPTH
    for vec, svd_golden in zip((got.e_plus, got.e_minus), OSELEDETS_SVD_GOLDEN[t]):
        assert cl.projective_distance(vec, [float.fromhex(x) for x in svd_golden]) <= 1e-13


@pytest.mark.parametrize("t", sorted(OSELEDETS_GOLDEN))
def test_oseledets_short_rung_agrees_with_the_golden(t):
    product, _ = schrodinger_pair()
    got = cl.oseledets_directions(product.angles[0], product.maps[0], t)
    assert got.converged and got.depth == holonomy.SHORT_PULLBACK_DEPTH == 16
    e_plus, e_minus, _ = OSELEDETS_GOLDEN[t]
    for vec, golden in ((got.e_plus, e_plus), (got.e_minus, e_minus)):
        assert cl.projective_distance(vec, [float.fromhex(x) for x in golden]) <= 1e-12


@pytest.mark.parametrize("energy", [0.5, 0.0])
def test_oseledets_unconverged_short_rung_falls_through_to_the_deep_bits(energy):
    """Map 0 of these pairs converges only past 16 steps (energy 0.5) or
    not at all (energy 0, a zero exponent): the result is the 200-step
    pullback's, bit for bit."""
    product, _ = schrodinger_pair(energy)
    angle, mat_map = product.angles[0], product.maps[0]
    for t in (0.05, 0.41, 0.77):
        assert not holonomy._pullback(angle, mat_map, t, 16).converged
        got = cl.oseledets_directions(angle, mat_map, t)
        want = holonomy._pullback(angle, mat_map, t, holonomy.PULLBACK_DEPTH)
        assert got.depth == want.depth == holonomy.PULLBACK_DEPTH
        assert got.converged == want.converged == (energy != 0.0)
        assert got.e_plus.tobytes() == want.e_plus.tobytes()
        assert got.e_minus.tobytes() == want.e_minus.tobytes()
        assert got.residual.hex() == want.residual.hex()


def test_oseledets_field_empty_writes_header_only(tmp_path):
    product, _ = schrodinger_pair()
    field = cl.oseledets_field(product.angles[0], product.maps[0], [])
    assert field.e_plus.shape == field.e_minus.shape == (0, 2)
    assert field.residual.shape == field.converged.shape == (0,)
    path = tmp_path / "field.csv"
    field.to_csv(path)
    table = cl.ResultTable.from_csv(path)
    assert table.columns == ["t", "e_plus_angle", "e_minus_angle", "residual",
                             "converged"]
    assert table.rows == []
