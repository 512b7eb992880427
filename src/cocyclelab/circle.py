"""Circle rotations, symbolic words, and base-dynamics holonomies.

The base space is the circle R/Z, represented by floats in [0, 1).
A word is a finite sequence of integer symbols; symbol ``s`` drives the
rotation by ``angles[s]``.  Forward tails list symbols at times
0, 1, 2, ...; backward tails list symbols at times -1, -2, -3, ...  A
backward tail is a forward tail of the reversed base, the rotations by the
negated angles, so the forward functions here serve both sides.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import InvalidWordError, NotHomoclinicError

# Default rotation angle: double-precision approximant of (sqrt(5)-1)/2.
GOLDEN_MEAN = 0.6180339887498949
# Points of the uniform circle grid behind every circle integral and the
# TWIST_D zero scan; a power of two, so each point k / n is exact
CIRCLE_GRID_N = 1 << 14


@cache
def circle_grid():
    """The points k / ``CIRCLE_GRID_N``, built on first use as one read-only array."""
    grid = np.arange(CIRCLE_GRID_N) / CIRCLE_GRID_N
    grid.flags.writeable = False
    return grid


def circle_mean(values):
    """Mean of ``values`` along axis 0, which runs over ``circle_grid()``.

    This is the periodic trapezoid rule, which converges geometrically on
    analytic integrands (Trefethen and Weideman, SIAM Review 2014).  The
    values are averaged pairwise, so a constant comes back exactly and the
    rounding grows only with log2 of the grid size, a power of two.
    """
    values = np.asarray(values, dtype=float)
    while values.shape[0] > 1:
        values = 0.5 * (values[0::2] + values[1::2])
    return values[0]


def wrap_unit(t):
    """Reduce a scalar or array to the fundamental domain [0, 1).

    Computed as t - floor(t); the rounding case where that expression
    lands on 1.0 is clamped back to 0.0.
    """
    if np.ndim(t) == 0:
        r = float(t) - math.floor(t)
        return 0.0 if r >= 1.0 else r
    t = np.asarray(t, dtype=float)
    r = t - np.floor(t)
    r[r >= 1.0] = 0.0
    return r


def rotate(t, angle):
    """Rigid rotation of the circle: t + angle reduced mod 1."""
    return wrap_unit(np.add(t, angle) if np.ndim(t) or np.ndim(angle) else t + angle)


def circle_distance(a, b):
    """Shortest distance between two circle points."""
    d = np.abs(wrap_unit(a) - wrap_unit(b))
    return np.minimum(d, 1.0 - d)


def as_word(word, n_symbols):
    """Validate a word against an alphabet of ``n_symbols`` symbols."""
    w = np.asarray(word)
    if w.size == 0:
        return np.zeros(0, dtype=np.int64)
    if w.ndim != 1:
        raise InvalidWordError("a word must be a one-dimensional sequence")
    if not np.issubdtype(w.dtype, np.integer):
        raise InvalidWordError(f"word symbols must be integers, got dtype {w.dtype}")
    w = w.astype(np.int64)
    if w.min() < 0 or w.max() >= n_symbols:
        raise InvalidWordError(
            f"word symbols must lie in [0, {n_symbols}), got range "
            f"[{w.min()}, {w.max()}]"
        )
    return w


def _wrapped_cumulative(t0, steps):
    # The running sum grows with the word and rounds at its longdouble ulp
    # each step: against the exact rational orbit of the float angles,
    # random words of three symbols read errors up to 6.8e-14 at 1e4 steps
    # and 1.2e-11 at 1e5 (three trials each)
    acc = np.cumsum(steps, dtype=np.longdouble)
    acc += np.longdouble(t0)
    return _wrap_extended(acc)


def _wrap_extended(acc):
    """The longdouble ``acc`` mod 1 as floats in [0, 1); overwrites ``acc``.

    Shared by ``_wrapped_cumulative`` and callers that build the running
    sums themselves, so both round the same way.
    """
    # modf is several times cheaper than a longdouble floor.  For
    # |acc| < 2**63 the fractional part, and frac + 1 of a negative one, are
    # exactly representable, so this is acc - floor(acc) bit for bit; the
    # -0.0 that modf gives for a negative or signed-zero integer acc becomes
    # +0.0 in the addition, as acc - floor(acc) gives there.  Working in
    # place holds two longdouble arrays at a time, as the floor did.
    np.modf(acc, out=(acc, np.empty_like(acc)))
    acc += acc < 0.0
    out = acc.astype(float)
    out[out >= 1.0] = 0.0
    return out


def base_orbit(angles, word, t):
    """Forward base orbit of ``t`` driven by ``word``.

    Returns the len(word)+1 points t_0 = t, t_{j+1} = t_j + angles[word_j]
    mod 1, endpoint included.
    """
    angles = np.asarray(angles, dtype=float)
    w = as_word(word, len(angles))
    out = np.empty(len(w) + 1)
    out[0] = wrap_unit(t)
    if len(w):
        out[1:] = _wrapped_cumulative(out[0], angles[w])
    return out


def homoclinic_base_holonomy(theta0, theta1):
    """Offset of the composed base holonomy for the canonical homoclinic pair.

    The unstable leg contributes no offset and the stable leg contributes
    theta1 - theta0, so the composed circle holonomy is t -> t + offset.
    """
    return wrap_unit(theta1 - theta0)


def constant_word(length):
    """The all-zero word, the symbol tail of the fixed point."""
    return np.zeros(length, dtype=np.int64)


def single_flip_word(length):
    """Word of symbol 0 everywhere except symbol 1 at position 0.

    Together with ``constant_word`` this realizes the canonical homoclinic
    pair: their forward tails agree from index 1 on, and their backward
    tails agree at every depth.
    """
    if length < 1:
        raise ValueError("need length >= 1 to place the flipped symbol")
    w = constant_word(length)
    w[0] = 1
    return w


def forward_agreement_index(x_tail, y_tail):
    """Smallest n0 >= 0 with x_i == y_i for every provided index i >= n0.

    Raises NotHomoclinicError when the tails still differ at the last
    provided position (no agreement inside the window).
    """
    x = np.asarray(x_tail)
    y = np.asarray(y_tail)
    if x.shape != y.shape:
        raise NotHomoclinicError("word tails must have equal length")
    disagree = np.nonzero(x != y)[0]
    if disagree.size == 0:
        return 0
    n0 = int(disagree[-1]) + 1
    if n0 >= len(x):
        raise NotHomoclinicError(
            "word tails never agree inside the provided window"
        )
    return n0


def stable_holonomy_offset(angles, x_tail, y_tail):
    """Circle offset of the stable base holonomy from the x-fiber to the y-fiber.

    Following both forward words for n0 steps lands on the same symbol tail;
    the holonomy sends t to t + sum(angles over x[:n0]) - sum(angles over
    y[:n0]) mod 1.
    """
    angles = np.asarray(angles, dtype=float)
    n0 = forward_agreement_index(x_tail, y_tail)
    x = as_word(np.asarray(x_tail)[:n0], len(angles))
    y = as_word(np.asarray(y_tail)[:n0], len(angles))
    return wrap_unit(math.fsum(angles[x]) - math.fsum(angles[y]))

