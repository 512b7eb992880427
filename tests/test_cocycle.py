import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab as cl
from util import (SILVER, inverse_word_product_reference, pipeline_tuple_d3,
                  random_tuple)

word_strategy = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=40)
coeff = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_eval_matches_direct_series():
    rng = np.random.default_rng(11)
    const = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
    cos = 0.2 * rng.standard_normal((3, 2, 2))
    sin = 0.2 * rng.standard_normal((3, 2, 2))
    # the scalar case has one sine mode fewer, so it is padded with a zero mode
    cases = [(cl.TrigMatrixMap(const, cos, sin), const, cos, sin),
             (cl.TrigPolynomial(const[0, 0], cos[:, 0, 0], sin[:2, 0, 0]),
              const[0, 0], cos[:, 0, 0], sin[:2, 0, 0])]
    ts = np.array([0.0, 0.3, 0.77])
    for p, c0, a, b in cases:
        assert p.degree == 3
        vals = p.eval_many(ts)
        assert vals.shape == (3,) + np.shape(c0)
        for t, val in zip(ts, vals):
            direct = np.copy(c0)
            for k in range(len(a)):
                direct += a[k] * math.cos(2 * math.pi * (k + 1) * t)
            for k in range(len(b)):
                direct += b[k] * math.sin(2 * math.pi * (k + 1) * t)
            assert np.max(np.abs(p.eval(t) - direct)) <= 1e-14
            assert np.max(np.abs(val - direct)) <= 1e-14


def _tensordot_eval_many(p, ts):
    # the tensordot evaluator the flat matrix products replaced
    out = np.empty((len(ts),) + p.const.shape)
    out[:] = p.const
    phases = 2.0 * np.pi * np.outer(ts, np.arange(1, p.degree + 1))
    out += np.tensordot(np.cos(phases), p.cos_coeffs, axes=(1, 0))
    out += np.tensordot(np.sin(phases), p.sin_coeffs, axes=(1, 0))
    return out


@pytest.mark.parametrize("shape", [(), (2, 2), (3, 3)])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_eval_many_matches_tensordot_bit_for_bit(shape, degree):
    rng = np.random.default_rng(degree)
    p = cl.TrigPolynomial(rng.standard_normal(shape),
                          rng.standard_normal((degree,) + shape),
                          rng.standard_normal((degree,) + shape))
    ts = rng.random(401)
    assert p.eval_many(ts).tobytes() == _tensordot_eval_many(p, ts).tobytes()


@pytest.mark.parametrize("shape", [(), (2, 2)])
@pytest.mark.parametrize("degree", [0, 2])
def test_eval_many_empty(shape, degree):
    p = cl.TrigPolynomial(np.ones(shape), np.ones((degree,) + shape),
                          np.ones((degree,) + shape))
    assert p.eval_many(np.array([])).shape == (0,) + shape
    assert p.eval_many([]).shape == (0,) + shape


def test_entry_rows_round_trip():
    rng = np.random.default_rng(0)
    rows = [list(2.0 * np.eye(3).ravel()[i : i + 1]) + list(0.1 * rng.standard_normal(4))
            for i in range(9)]
    rows = [[r[0] + (2.0 if i % 4 == 0 else 0.0)] + r[1:] for i, r in enumerate(rows)]
    m = cl.TrigMatrixMap.from_rows((3, 3), rows)
    assert np.allclose(m.to_rows(), rows, atol=0)
    with pytest.raises(ValueError):
        cl.TrigMatrixMap.from_rows((2, 2), rows)
    for bad in ([row[:-1] for row in rows], rows[:8] + [rows[8][:3]], []):
        with pytest.raises(ValueError, match="odd length"):
            cl.TrigMatrixMap.from_rows((3, 3), bad)


@given(shape=st.sampled_from([(), (1, 1), (3, 3)]), degree=st.integers(0, 3),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_rows_round_trip(shape, degree, data):
    n = math.prod(shape)
    rows = [data.draw(st.lists(coeff, min_size=1 + 2 * degree, max_size=1 + 2 * degree))
            for _ in range(n)]
    p = cl.TrigPolynomial.from_rows(shape, rows)
    assert p.const.shape == shape and p.degree == degree
    assert p.to_rows() == rows
    again = cl.TrigPolynomial.from_rows(shape, p.to_rows())
    for a, b in ((again.const, p.const), (again.cos_coeffs, p.cos_coeffs),
                 (again.sin_coeffs, p.sin_coeffs)):
        assert np.array_equal(a, b)


def test_group_tag_certification():
    with pytest.raises(cl.GroupTagError):
        cl.TrigMatrixMap.constant([[2.0, 0.1], [0.0, 1.0]], group_tag=cl.DIAGONAL)
    with pytest.raises(cl.GroupTagError):
        cl.TrigMatrixMap.constant([[3.0, -1.0], [1.0, 0.1]], group_tag=cl.SCHRODINGER)
    with pytest.raises(cl.GroupTagError):
        cl.TrigMatrixMap.constant([[2.0, 0.0], [0.0, 1.0]], group_tag=cl.SL2)
    with pytest.raises(cl.NonInvertibleMapError):
        cl.TrigMatrixMap.constant([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(cl.GroupTagError):
        cl.TrigMatrixMap.constant(np.eye(2), group_tag="weird")
    # sin(2 pi t) on the diagonal vanishes at t = 0: singular somewhere
    with pytest.raises(cl.NonInvertibleMapError):
        cl.TrigMatrixMap(np.zeros((1, 1)), None, np.ones((1, 1, 1)))


def test_invertibility_is_judged_against_the_hadamard_bound():
    # diag(4e-4, 2e-4, 1e-4) has condition number 4 although its det is 8e-12
    small = cl.rescale_diagonal(pipeline_tuple_d3().maps[0], [1e-4] * 3)
    assert small.group_tag == cl.DIAGONAL
    assert np.array_equal(small.eval(0.3), np.diag([4e-4, 2e-4, 1e-4]))
    # det ~ 10 but condition number ~ 4e11: |det| is 5e-12 of the Hadamard bound
    with pytest.raises(cl.NonInvertibleMapError, match="Hadamard bound"):
        cl.TrigMatrixMap.constant([[1e6, 1e6], [1e6, 1e6 + 1e-5]])


def test_certification_holds_at_any_scale():
    # squared entries and dets of these maps leave the float range unscaled
    assert cl.TrigMatrixMap.constant(np.diag([1e160, 1.0])).group_tag == cl.GENERAL
    for scale in (1e160, 1e-160):
        assert all(isinstance(scale * m, cl.TrigMatrixMap)
                   for m in random_tuple(3, seed=1).maps)
    # the message is in the map's units
    with pytest.raises(cl.NonInvertibleMapError, match=r"Hadamard bound 2\.000e\+212"):
        cl.TrigMatrixMap.constant([[1e106, 1e106], [1e106, 1e106 * (1 + 1e-11)]])


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(-60, 60),
       st.floats(0.0, 1e-8))
@settings(max_examples=60, deadline=None)
def test_scaled_certification_keeps_every_in_range_decision(seed, d, exponent, gap):
    # the unscaled comparison decides every map whose grid values stay in range
    rng = np.random.default_rng(seed)
    const = rng.standard_normal((d, d))
    const[-1] = const[0] * (1.0 + gap)  # singular at gap = 0, near it above
    cos = 0.1 * rng.standard_normal((1, d, d))
    const, cos = const * 10.0 ** exponent, cos * 10.0 ** exponent
    vals = cl.TrigPolynomial(const, cos).eval_many(np.arange(1024) / 1024)
    bound = math.prod(np.sqrt((vals * vals).sum(axis=2)).max(axis=0))
    accepted = np.min(np.abs(np.linalg.det(vals))) > cl.cocycle.DET_FLOOR * bound
    try:
        cl.TrigMatrixMap(const, cos)
    except cl.NonInvertibleMapError:
        assert not accepted
    else:
        assert accepted


def test_schrodinger_det_is_one_exactly():
    phi = cl.TrigPolynomial(3.0, [0.9, 0.0], [0.0, 0.4])
    m = cl.make_schrodinger(phi)
    assert m.group_tag == cl.SCHRODINGER
    vals = m.eval_many(np.linspace(0.0, 1.0, 97, endpoint=False))
    dets = vals[:, 0, 0] * vals[:, 1, 1] - vals[:, 0, 1] * vals[:, 1, 0]
    assert np.all(dets == 1.0)
    assert np.all(vals[:, 0, 0] == phi.eval_many(np.linspace(0.0, 1.0, 97, endpoint=False)))


def test_scalar_potential_arithmetic():
    u = cl.TrigPolynomial(0.5, [1.0], [0.2])
    v = cl.TrigPolynomial(-0.1, [0.0, 0.3], [0.0, 0.0])
    ts = np.linspace(0, 1, 11, endpoint=False)
    assert np.allclose((u + v).eval_many(ts), u.eval_many(ts) + v.eval_many(ts), atol=1e-15)
    assert np.allclose((2.5 * u).eval_many(ts), 2.5 * u.eval_many(ts), atol=1e-15)
    assert np.allclose((-u).eval_many(ts), -u.eval_many(ts), atol=0)
    shifted = cl.shift_potential(u, 3.0)
    assert np.allclose(shifted.eval_many(ts), u.eval_many(ts) + 3.0, atol=1e-15)
    rows = u.to_rows()
    assert rows == [[0.5, 1.0, 0.2]]
    assert cl.TrigPolynomial.from_rows((), rows).to_rows() == rows
    with pytest.raises(ValueError):
        u + cl.TrigPolynomial(np.eye(2))


def test_map_arithmetic_and_tags():
    a = cl.TrigMatrixMap.constant(np.diag([2.0, 0.5]), group_tag=cl.DIAGONAL)
    b = cl.TrigMatrixMap.constant(np.diag([1.0, 3.0]), group_tag=cl.DIAGONAL)
    both = a + b
    assert both.group_tag == cl.DIAGONAL
    assert np.allclose(both.eval(0.2), np.diag([3.0, 3.5]), atol=0)
    doubled = 2.0 * a
    assert np.allclose(doubled.eval(0.9), np.diag([4.0, 1.0]), atol=0)
    assert doubled.group_tag == cl.DIAGONAL
    assert (-a).group_tag == cl.DIAGONAL
    general = a + cl.TrigMatrixMap.constant([[0.0, 1.0], [-1.0, 0.0]])
    assert general.group_tag == cl.GENERAL
    # a plain polynomial term is never certified and makes the sum GENERAL
    plain = cl.TrigPolynomial(np.diag([1.0, 1.0]))
    for mixed in (a + plain, plain + a):
        assert isinstance(mixed, cl.TrigMatrixMap)
        assert mixed.group_tag == cl.GENERAL
        assert np.array_equal(mixed.eval(0.2), np.diag([3.0, 1.5]))
    assert type(2.0 * plain) is cl.TrigPolynomial
    assert type(plain + plain) is cl.TrigPolynomial
    with pytest.raises(cl.NonInvertibleMapError):
        a + (-a)


def test_right_rotate_matches_matrix_product():
    rp = random_tuple(2, seed=21)
    m = rp.maps[0]
    rot = cl.right_rotate(m, 0.125)
    r = np.array([[math.cos(math.pi / 4), -math.sin(math.pi / 4)],
                  [math.sin(math.pi / 4), math.cos(math.pi / 4)]])
    for t in (0.0, 0.41, 0.9):
        assert np.max(np.abs(rot.eval(t) - m.eval(t) @ r)) <= 1e-14
    sl2 = cl.TrigMatrixMap.constant(np.diag([2.0, 0.5]), group_tag=cl.SL2)
    assert cl.right_rotate(sl2, 0.3).group_tag == cl.SL2
    with pytest.raises(ValueError):
        cl.right_rotate(cl.TrigMatrixMap.constant(np.eye(3)), 0.1)


def test_rescale_diagonal():
    m = cl.TrigMatrixMap.from_rows(
        (2, 2), [[2.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.2]],
        group_tag=cl.DIAGONAL,
    )
    scaled = cl.rescale_diagonal(m, [3.0, 0.5])
    for t in (0.1, 0.6):
        assert np.allclose(scaled.eval(t), np.diag([3.0, 0.5]) @ m.eval(t), atol=1e-15)
    with pytest.raises(cl.GroupTagError):
        cl.rescale_diagonal(cl.TrigMatrixMap.constant([[2.0, 1.0], [0.0, 1.0]]), [1.0, 1.0])
    with pytest.raises(ValueError):
        cl.rescale_diagonal(m, [1.0, -1.0])


def test_perturbation_accepts_singular_direction():
    base = cl.TrigMatrixMap.constant(np.diag([2.0, 0.5]))
    direction = cl.TrigPolynomial([[0.0, 1.0], [0.0, 0.0]])
    out = base + 0.25 * direction
    assert out.group_tag == cl.GENERAL
    assert np.allclose(out.eval(0.3), [[2.0, 0.25], [0.0, 0.5]], atol=0)
    # the direction alone is singular; only the sum must be invertible
    with pytest.raises(cl.NonInvertibleMapError):
        cl.TrigMatrixMap.constant([[0.0, 1.0], [0.0, 0.0]])


def test_random_product_validation():
    m = cl.TrigMatrixMap.constant(np.diag([2.0, 0.5]))
    with pytest.raises(ValueError):
        cl.RandomProduct([0.1], [m], [0.9])
    with pytest.raises(ValueError):
        cl.RandomProduct([0.1, 0.2], [m])
    with pytest.raises(ValueError):
        cl.RandomProduct([0.1, 0.2], [m, cl.TrigMatrixMap.constant(np.eye(3))])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite rotation angle"):
            cl.RandomProduct([bad, 0.4], [m, m])
    rp = cl.RandomProduct([0.1, 0.2], [m, m], [0.25, 0.75])
    assert rp.n_symbols == 2 and rp.dim == 2
    solo = rp.solo(1)
    assert solo.n_symbols == 1
    assert solo.weights[0] == 1.0


def test_word_product_constant_map_is_power():
    mat = np.array([[2.0, 1.0], [0.0, 0.5]])
    rp = cl.RandomProduct([cl.GOLDEN_MEAN], [cl.TrigMatrixMap.constant(mat)])
    assert np.allclose(cl.word_product(rp, [0, 0], 0.3), mat @ mat, atol=1e-13)
    assert np.array_equal(cl.word_product(rp, [], 0.3), np.eye(2))
    # the unstable holonomy from back tail [1, 1, 0] to [0, 0, 0] is
    # A0^2 inv(A1^2): forward products along the reversed words
    other = np.array([[1.0, 0.0], [0.5, 3.0]])
    rp = cl.RandomProduct([cl.GOLDEN_MEAN, SILVER], [cl.TrigMatrixMap.constant(mat),
                                                     cl.TrigMatrixMap.constant(other)])
    x_back, y_back = [1, 1, 0], [0, 0, 0]
    t_y = cl.rotate(0.3, cl.stable_holonomy_offset(-rp.angles, x_back, y_back))
    got = cl.linear_holonomy(rp, x_back, y_back, 0.3, t_y, side="unstable")
    want = mat @ mat @ np.linalg.inv(other @ other)
    assert np.allclose(got, want, atol=1e-13)


@given(word=word_strategy, t=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_word_product_cocycle_law(word, t):
    rp = random_tuple(2, seed=5)
    word = np.asarray(word, dtype=int)
    cut = len(word) // 2
    full = cl.word_product(rp, word, t)
    head = cl.word_product(rp, word[:cut], t)
    mid = cl.base_orbit(rp.angles, word[:cut], t)[-1]
    tail = cl.word_product(rp, word[cut:], mid)
    assert np.max(np.abs(full - tail @ head)) <= 1e-10 * max(1.0, np.max(np.abs(full)))


@given(word=word_strategy, t=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_inverse_word_product_inverts(word, t):
    # the product along a backward tail is the forward product along the
    # reversed word from the far end of the reversed-base orbit; its
    # inverse is the product of inverses the library once computed
    rp = random_tuple(2, seed=9)
    word = np.asarray(word, dtype=int)
    forward = cl.word_product(rp, word, t)
    end = cl.base_orbit(rp.angles, word, t)[-1]
    start = cl.base_orbit(-rp.angles, word[::-1], end)[-1]
    assert cl.circle_distance(start, t) <= 1e-12
    again = cl.word_product(rp, word, start)
    assert np.max(np.abs(again - forward)) <= 1e-10 * max(1.0, np.max(np.abs(forward)))
    backward = inverse_word_product_reference(rp, word[::-1], end)
    assert np.max(np.abs(backward @ forward - np.eye(2))) <= 1e-9
    assert np.max(np.abs(backward @ again - np.eye(2))) <= 1e-9
