import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import cocyclelab as cl
from cocyclelab import circle
from util import SILVER, unstable_holonomy_offset_reference

finite_reals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
circle_points = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


def test_wrap_unit_values():
    assert cl.wrap_unit(0.0) == 0.0
    assert cl.wrap_unit(1.0) == 0.0
    assert cl.wrap_unit(2.5) == 0.5
    assert cl.wrap_unit(-0.25) == 0.75
    out = cl.wrap_unit(np.array([0.1, 1.2, -0.3]))
    assert np.allclose(out, [0.1, 0.2, 0.7], atol=1e-15)
    assert np.all((out >= 0.0) & (out < 1.0))


@given(t=circle_points, a=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@settings(max_examples=200)
def test_rotate_round_trip(t, a):
    back = cl.rotate(cl.rotate(t, a), -a)
    assert cl.circle_distance(back, t) <= 1e-15


@given(t=finite_reals, a=finite_reals)
@settings(max_examples=200)
def test_rotate_round_trip_large_inputs(t, a):
    # large magnitudes round at eps * |t + a|, far above the circle scale
    back = cl.rotate(cl.rotate(t, a), -a)
    assert cl.circle_distance(back, cl.wrap_unit(t)) <= 1e-9


@given(t=circle_points, a=st.floats(min_value=-10, max_value=10, allow_nan=False))
@settings(max_examples=200)
def test_rotate_stays_on_circle(t, a):
    out = cl.rotate(t, a)
    assert 0.0 <= out < 1.0


def test_circle_distance_symmetry_and_range():
    assert cl.circle_distance(0.1, 0.9) == pytest.approx(0.2, abs=1e-15)
    assert cl.circle_distance(0.9, 0.1) == pytest.approx(0.2, abs=1e-15)
    assert cl.circle_distance(0.25, 0.75) == pytest.approx(0.5, abs=1e-15)
    assert cl.circle_distance(0.3, 0.3) == 0.0


def test_as_word_validates():
    word = cl.as_word([0, 1, 1, 0], 2)
    assert word.dtype.kind == "i"
    assert len(cl.as_word([], 3)) == 0
    with pytest.raises(cl.InvalidWordError):
        cl.as_word([0, 2], 2)
    with pytest.raises(cl.InvalidWordError):
        cl.as_word([-1], 2)
    with pytest.raises(cl.InvalidWordError):
        cl.as_word([0.5], 2)


def _floor_wrapped_cumulative(t0, steps):
    # the longdouble floor formula the modf wrap replaced
    acc = np.cumsum(steps.astype(np.longdouble)) + np.longdouble(t0)
    acc -= np.floor(acc)
    out = acc.astype(float)
    out[out >= 1.0] = 0.0
    return out


# dyadic steps make partial sums land exactly on integers, both signs
orbit_steps = st.lists(
    st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.0, 2.0]),
              st.sampled_from([cl.GOLDEN_MEAN, SILVER]),
              st.floats(min_value=0.0, max_value=3.0, allow_nan=False)),
    min_size=1, max_size=60)


@given(t0=st.one_of(st.just(0.0), circle_points), steps=orbit_steps,
       sign=st.sampled_from([1.0, -1.0]))
@example(t0=0.0, steps=[0.5, 0.5, 1.0, 0.25, 0.75], sign=-1.0)
@example(t0=0.0, steps=[0.5, 0.5, 1.0, 0.25, 0.75], sign=1.0)
@example(t0=0.25, steps=[0.75, 0.25], sign=-1.0)
@settings(max_examples=300)
def test_wrapped_cumulative_matches_floor_bit_for_bit(t0, steps, sign):
    # the reversed base passes negated angles, the forward base positive ones
    steps = sign * np.array(steps)
    got = circle._wrapped_cumulative(t0, steps)
    want = _floor_wrapped_cumulative(t0, steps)
    assert got.tobytes() == want.tobytes()
    assert not np.any(np.signbit(got))
    assert np.all((got >= 0.0) & (got < 1.0))


def test_orbit_endpoint_accuracy_long_word():
    rng = np.random.default_rng(7)
    word = rng.integers(0, 2, size=10_000)
    angles = [cl.GOLDEN_MEAN, SILVER]
    orbit = cl.base_orbit(angles, word, 0.123456789)
    assert len(orbit) == 10_001
    total = math.fsum(angles[s] for s in word)
    expected = cl.rotate(0.123456789, total)
    assert cl.circle_distance(orbit[-1], expected) <= 1e-12


def test_orbit_equidistribution():
    orbit = cl.base_orbit([cl.GOLDEN_MEAN], cl.constant_word(4096), 0.0)
    assert stats.kstest(orbit[:-1], "uniform").pvalue > 0.01


def test_circle_grid_is_read_only():
    grid = circle.circle_grid()
    assert grid.tobytes() == (np.arange(circle.CIRCLE_GRID_N) / circle.CIRCLE_GRID_N).tobytes()
    assert circle.circle_grid() is grid
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 0.5


def test_circle_grid_is_built_on_first_use_not_at_import():
    # every CLI start-up imports the package; only a circle integral needs the grid
    code = "\n".join([
        "import cocyclelab",
        "from cocyclelab import circle",
        "assert circle.circle_grid.cache_info().currsize == 0",
        "circle.circle_grid(); circle.circle_grid()",
        "info = circle.circle_grid.cache_info()",
        "assert (info.misses, info.hits) == (1, 1), info",
    ])
    package_root = str(Path(circle.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=package_root))
    assert proc.returncode == 0, proc.stderr


@given(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))
def test_circle_mean_of_a_constant_is_exact(value):
    assert circle.circle_mean(np.full(circle.CIRCLE_GRID_N, value)) == value


def test_backward_orbit_inverts_forward():
    rng = np.random.default_rng(3)
    word = rng.integers(0, 2, size=200)
    angles = [cl.GOLDEN_MEAN, SILVER]
    fwd = cl.base_orbit(angles, word, 0.4)
    back = cl.base_orbit(-np.asarray(angles), word[::-1], fwd[-1])
    for p, q in zip(back, fwd[::-1]):
        assert cl.circle_distance(p, q) <= 1e-12


def _backward_orbit_reference(angles, word, t):
    # the body of the former backward_orbit, before it became base_orbit on
    # negated angles
    angles = np.asarray(angles, dtype=float)
    w = cl.as_word(word, len(angles))
    out = np.empty(len(w) + 1)
    out[0] = cl.wrap_unit(t)
    if len(w):
        out[1:] = circle._wrapped_cumulative(out[0], -angles[w])
    return out


orbit_angles = st.lists(
    st.one_of(st.sampled_from([0.0, 0.25, 0.5, cl.GOLDEN_MEAN, SILVER]),
              st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)),
    min_size=1, max_size=3)


@given(angles=orbit_angles, data=st.data(),
       t=st.one_of(circle_points, st.floats(min_value=-5.0, max_value=5.0)))
@settings(max_examples=300)
def test_backward_orbit_is_base_orbit_on_negated_angles(angles, data, t):
    word = data.draw(st.lists(st.integers(0, len(angles) - 1), max_size=80))
    got = cl.base_orbit(-np.asarray(angles, dtype=float), word, t)
    want = _backward_orbit_reference(angles, word, t)
    assert got.tobytes() == want.tobytes()


def test_homoclinic_words():
    const = cl.constant_word(6)
    flip = cl.single_flip_word(6)
    assert list(const) == [0] * 6
    assert list(flip) == [1, 0, 0, 0, 0, 0]
    assert cl.forward_agreement_index(flip, const) == 1
    assert cl.forward_agreement_index(const, const) == 0
    # one agreement index serves forward tails and backward depths alike
    with pytest.raises(cl.NotHomoclinicError, match="word tails never agree"):
        cl.forward_agreement_index(cl.constant_word(4), cl.single_flip_word(4)[::-1])


def test_holonomy_offsets_match_base_holonomy():
    angles = [cl.GOLDEN_MEAN, SILVER]
    flip = cl.single_flip_word(8)
    const = cl.constant_word(8)
    offset = cl.stable_holonomy_offset(angles, flip, const)
    assert offset == pytest.approx(
        cl.homoclinic_base_holonomy(angles[0], angles[1]), abs=1e-15
    )
    # the unstable offset is the stable one on the reversed base
    assert cl.stable_holonomy_offset(-np.asarray(angles), const, const) == 0.0
    back_offset = cl.stable_holonomy_offset(-np.asarray(angles), flip, const)
    assert back_offset == unstable_holonomy_offset_reference(angles, flip, const)
    assert cl.circle_distance(back_offset, -offset) <= 1e-15


@given(theta0=circle_points, theta1=circle_points)
@settings(max_examples=100)
def test_base_holonomy_is_rigid_rotation(theta0, theta1):
    delta = cl.homoclinic_base_holonomy(theta0, theta1)
    assert 0.0 <= delta < 1.0
    assert cl.circle_distance(cl.rotate(theta0, delta), theta1) <= 1e-15


@pytest.mark.parametrize("trial", range(3))
def test_base_orbit_stays_near_the_exact_orbit(trial):
    # the longdouble running sum drifts from the exact rational orbit of the
    # float angles as the word grows: 6.8e-14 at 1e4 steps over these trials
    angles = np.array([cl.GOLDEN_MEAN, SILVER, 0.2360679774997897])
    rng = np.random.default_rng(trial)
    word = rng.integers(0, 3, 10_000)
    t0 = rng.random()
    got = cl.base_orbit(angles, word, t0)
    step = [Fraction(float(a)) for a in angles]
    t = Fraction(t0)
    exact = [t0]
    for s in word:
        t += step[s]
        exact.append(float(t - math.floor(t)))
    assert np.max(cl.circle_distance(got, np.array(exact))) <= 1e-12
