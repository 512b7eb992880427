"""Zeros of a real function on the circle from its Fourier modes.

A real trigonometric polynomial g(t) = sum_{|k| <= K} c_k e^{2 pi i k t},
with c_{-k} the conjugate of c_k, is z^-K P(z) on the unit circle
z = e^{2 pi i t}, where P has degree 2K.  So the real zeros of g are the
unit-circle roots of P, which ``np.roots`` finds as the eigenvalues of its
companion matrix (Boyd, J. Eng. Math. 2006; Wright, Javed, Montanelli and
Trefethen, SIAM J. Sci. Comput. 2015).  An analytic g is handled the same
way once its modes are chopped where they have fallen to rounding.  The
same roots give the circle integral of log |g| by Jensen's formula.  One
call of ``zeros`` on the modes takes the roots and returns both, the zeros
and that log mean; ``circle_log_mean`` runs it from the values of g.
``rounding`` is the size of the rounding of g on the circle, which sets how
far a zero can move and below which |g| cannot be told from 0.
"""

from __future__ import annotations

import math

import numpy as np

# Modes at most this times the largest one are rounding, and the series is
# chopped before them.  Values of g carry a rounding of a few eps; its
# modes above the degree of a trig polynomial read about 2e-16 of the
# largest one on the TWIST_D minors.
_CHOP = 32.0 * np.finfo(float).eps
# |g| at most this times the size of g's terms is a zero of g
ZERO_REL_TOL = 1e-12


def sample_points(degree):
    """The n points k / n, n the smallest power of two of at least 4 ``degree`` + 4.

    They fix a trig polynomial of that degree, and the modes of g from
    degree + 1 to n / 2 show whether g is one.
    """
    n = 1 << (4 * degree + 3).bit_length()
    return np.arange(n) / n


def fourier_modes(values, degree=None, threshold=0.0):
    """Modes c_0 ... c_K of g from its values at the n points k / n.

    The modes are ``np.fft.rfft(values) / n``.  With a declared ``degree``
    the modes above it are aliasing or rounding: each must be below
    ``threshold``, or g is not of that degree and ``ValueError`` is raised,
    and they are dropped.  The rest is chopped after the last mode above
    ``_CHOP`` times the largest; for a trig polynomial of degree below
    n / 2 that is its degree, for an analytic g the point where its series
    has converged.  ``values`` must not all be 0.
    """
    modes = np.fft.rfft(values) / len(values)
    if degree is not None:
        above = np.abs(modes[degree + 1:])
        if above.size and not above.max() < threshold:
            raise ValueError(f"g has a mode of {above.max():.3g} above its declared degree "
                             f"{degree}, at least {threshold:.3g}")
        modes = modes[:degree + 1]
    return chop(modes)


def chop(modes):
    """``modes`` up to the last one above ``_CHOP`` times the largest, which must not be 0."""
    size = np.abs(modes)
    return modes[:np.flatnonzero(size > _CHOP * size.max())[-1] + 1]


def evaluate(modes, ts, orders=0):
    """The ``orders``-th derivative of g at the points ``ts``, from its modes.

    ``orders`` is one order or one per point.
    """
    k = np.arange(len(modes))
    weights = modes * (2j * np.pi * k) ** np.asarray(orders)[..., None]
    terms = np.exp(2j * np.pi * np.multiply.outer(ts, k)) * weights
    return 2.0 * terms.sum(axis=-1).real - weights[..., 0].real


def _log_mean(modes, all_roots, real):
    """Circle integral of log |g| by Jensen's formula.

    z^K g is c_K prod_j (z - z_j), so the integral is log |c_K| plus
    log |z_j| over its roots ``all_roots`` outside the unit circle.  The
    roots marked ``real``, those that rounding split off a real zero of g,
    count as on the circle: the split of a zero of order m moves them off
    it by about eps^(1 / m), which would add that much for nothing.
    """
    size = np.abs(all_roots)
    outside = (size > 1.0) & ~real
    return math.log(abs(modes[-1])) + float(np.log(size[outside]).sum())


def rounding(modes):
    """The rounding of g on the circle, (2K + 1) ``_CHOP`` max |c_k|.

    Each of the 2K + 1 modes of g is rounded by up to ``_CHOP`` times the
    largest.  It sets the radii of ``zeros``, and below it |g| is noise
    beside a zero of g.
    """
    return (2 * len(modes) - 1) * _CHOP * np.abs(modes).max()


def local_log_scale(modes, ts, orders):
    """log c for g ~ c (t - t_k)^m around each t_k of order m: log(|g^(m)(t_k)| / m!)."""
    with np.errstate(divide="ignore"):
        return (np.log(np.abs(evaluate(modes, ts, orders)))
                - [math.lgamma(m + 1) for m in orders.tolist()])


def zeros(modes, threshold):
    """Real zeros of g: their first estimates, orders and rounding radii, and its log mean.

    Only those of the 2K roots of z^K g with |g| at most ``threshold``
    at their angles t can belong to a zero; they are grouped bottom up by
    t, so that a root off the circle and its mirror image in it, which
    share t, fall together.  A group of m roots centred at t gets the radius
    (e / c)^(1/m), c = |g^(m)(t)| / m! and e the rounding of g on the
    circle (``rounding``): how far rounding can move a zero of order m at
    t.  The two nearest groups merge while they are within the larger
    radius of the two, so the roots that rounding splits off one zero of
    order m become one group of m, and zeros further apart stay distinct.
    A group is a zero when |g| at its centre is at most ``threshold``; its
    centre is within about its radius of the zero, where the (m - 1)-th
    derivative of g has a simple zero.  Returns centres, orders and radii
    as arrays, and the circle integral of log |g| from the same roots
    (``_log_mean``).
    """
    all_roots = np.roots(np.concatenate([modes[::-1], modes[1:].conj()]))
    turns = np.angle(all_roots) / (2.0 * np.pi)
    # a root that rounding split off a zero has |g| at its angle near the
    # rounding, far below the threshold
    candidates = np.flatnonzero(np.abs(evaluate(modes, turns)) <= threshold)
    real = np.zeros(len(all_roots), dtype=bool)
    turns = turns[candidates]
    if not turns.size:
        return turns, np.zeros(0, dtype=int), turns, _log_mean(modes, all_roots, real)
    log_rounding = math.log(rounding(modes))
    # row a marks the roots of group a
    groups = np.eye(len(turns), dtype=bool)
    while True:
        orders = groups.sum(axis=1)
        # the mean of the group's angles, unwrapped around its first one
        first = turns[groups.argmax(axis=1)]
        offsets = (turns - first[:, None] + 0.5) % 1.0 - 0.5
        ts = first + np.where(groups, offsets, 0.0).sum(axis=1) / orders
        radius = np.exp((log_rounding - local_log_scale(modes, ts, orders)) / orders)
        apart = np.abs((ts[:, None] - ts + 0.5) % 1.0 - 0.5)
        near = apart <= np.maximum(radius[:, None], radius)
        np.fill_diagonal(near, False)
        if not near.any():
            break
        a, b = np.unravel_index(np.argmin(np.where(near, apart, np.inf)), apart.shape)
        groups[a] |= groups[b]
        groups = np.delete(groups, b, axis=0)
    keep = np.abs(evaluate(modes, ts)) <= threshold
    real[candidates[groups[keep].any(axis=0)]] = True
    return ts[keep], orders[keep], radius[keep], _log_mean(modes, all_roots, real)


def circle_log_mean(values, degree):
    """Modes, real zeros and circle integral of log |g| from its values at the n points k / n.

    g is a trig polynomial of at most ``degree`` and n at least
    ``len(sample_points(degree))``.  |g| at most ``ZERO_REL_TOL`` times the
    largest |value| is a zero, and a mode above ``degree`` that is not below
    that raises ``ValueError`` (``fourier_modes``).
    """
    threshold = ZERO_REL_TOL * np.abs(values).max()
    modes = fourier_modes(values, degree, threshold)
    ts, _, _, mean = zeros(modes, threshold)
    return modes, ts, mean
