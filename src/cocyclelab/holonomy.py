"""Linear holonomies along homoclinic loops and Oseledets direction fields.

For a pair of sequences whose forward (or backward) symbol tails agree, the
stable (or unstable) linear holonomy between paired fibers is attained at
the finite agreement index, so it is computed exactly as a quotient of two
finite cocycle products.  For the canonical homoclinic pair the composition
of the two legs collapses to a closed form evaluated from the first two
maps of the tuple.

The Oseledets directions of a single map are singular vectors of long
products, as for covariant Lyapunov vectors (Ginelli et al. 2007): e+ at t
is the top left singular vector of the product of the steps that end at t,
e- the bottom right singular vector of the product of the steps that start
at t.  One pullback evaluates the map along one base orbit through t,
scales all its steps by one power of two, multiplies them pairwise at unit
norm, and reads each 2x2 singular direction in closed form, as half the
angle atan2 takes of the entries of M M^T (left) or M^T M (right).  A
point is pulled back ``SHORT_PULLBACK_DEPTH`` (16) steps per half first;
only where that has not converged is it pulled back again at
``PULLBACK_DEPTH`` (200), by the same routine, so a point that falls
through gets the bits of a 200-step pullback alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import (base_orbit, circle_distance, constant_word,
                     forward_agreement_index, homoclinic_base_holonomy, rotate,
                     single_flip_word, stable_holonomy_offset, wrap_unit)
from .cocycle import word_product

# Paired fibers must match the base holonomy image to this tolerance.
BASE_POINT_TOL = 1e-9

# Steps per half of an Oseledets pullback: the short rung that every point
# runs first, and the deep one for a point the short one leaves
# unconverged.  A deep rung too short for a map shows as unconverged
# samples, which WEAK_TWIST leaves out of its verdict.
SHORT_PULLBACK_DEPTH = 16
PULLBACK_DEPTH = 200
# Convergence bound on the projective residual between two pullback depths;
# it is dimensionless, so no rescaling of a map calls for another value.
DIRECTION_TOL = 1e-8


def projective_distance(u, v):
    """Sine of the angle between the lines spanned by two 2-vectors.

    ``u`` and ``v`` may be lists, tuples or arrays; the result is a Python
    float, computed on Python floats with ``math.hypot`` for the norms.  A
    zero vector spans no line and raises ``ValueError``.
    """
    u0, u1 = u.tolist() if isinstance(u, np.ndarray) else u
    v0, v1 = v.tolist() if isinstance(v, np.ndarray) else v
    try:
        return float(abs(u0 * v1 - u1 * v0) / (math.hypot(u0, u1) * math.hypot(v0, v1)))
    except ZeroDivisionError:
        raise ValueError("a zero vector spans no line") from None


def linear_holonomy(product, x_tail, y_tail, t_x, t_y, side="stable"):
    """Linear holonomy from the fiber over (x, t_x) to the fiber over (y, t_y).

    ``x_tail``/``y_tail`` are forward symbol tails for the stable side and
    backward tails (most recent first) for the unstable side.  The limit
    defining the holonomy is attained at the agreement index n.  The stable
    holonomy is inv(P_y) @ P_x, with P_x the product along x[:n] from t_x.
    The unstable one is the stable holonomy of the inverse cocycle over the
    reversed base, which rotates by the negated angles: P_y @ inv(P_x), with
    P_x the product along x[:n][::-1] from the end of the reversed-base
    orbit of t_x under x[:n].  ``t_y`` must be the image of ``t_x`` under
    that side's base holonomy.
    """
    if side not in ("stable", "unstable"):
        raise ValueError("side must be 'stable' or 'unstable'")
    n = forward_agreement_index(x_tail, y_tail)
    angles = product.angles if side == "stable" else -product.angles
    image = rotate(t_x, stable_holonomy_offset(angles, x_tail, y_tail))
    if circle_distance(image, t_y) > BASE_POINT_TOL:
        raise ValueError(f"t_y is not the {side} base-holonomy image of t_x")
    x, y = np.asarray(x_tail)[:n], np.asarray(y_tail)[:n]
    if side == "stable":
        return np.linalg.solve(word_product(product, y, t_y),
                               word_product(product, x, t_x))
    px = word_product(product, x[::-1], base_orbit(angles, x, t_x)[-1])
    py = word_product(product, y[::-1], base_orbit(angles, y, t_y)[-1])
    return np.linalg.solve(px.T, py.T).T


def composed_holonomy(product, t):
    """Stable-after-unstable holonomy around the canonical homoclinic loop.

    The unstable leg runs from the fixed-point fiber at ``t`` to the
    homoclinic fiber, the stable leg continues to the fixed-point fiber at
    the composed base-holonomy image of ``t``.  The flip and anchor words
    agree from index 1 on, so words of length 2 hold the whole loop; their
    backward tails are equal, so the unstable leg ends over ``t`` itself.
    """
    if product.n_symbols < 2:
        raise ValueError("the homoclinic loop needs symbols 0 and 1")
    anchor = constant_word(2)
    flip = single_flip_word(2)
    t = wrap_unit(t)
    unstable = linear_holonomy(product, anchor, anchor, t, t, side="unstable")
    end = rotate(t, stable_holonomy_offset(product.angles, flip, anchor))
    stable = linear_holonomy(product, flip, anchor, t, end, side="stable")
    return stable @ unstable


def closed_form_holonomy_many(product, ts):
    """Vectorized closed form inv(A_0(t + offset)) @ A_1(t); shape (n, d, d).

    One batched ``np.linalg.solve`` for every first map; it raises
    ``LinAlgError`` where A_0 is exactly singular.
    """
    if product.n_symbols < 2:
        raise ValueError("the closed form needs symbols 0 and 1")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    offset = homoclinic_base_holonomy(product.angles[0], product.angles[1])
    a1 = product.maps[1].eval_many(ts)
    a0 = product.maps[0].eval_many(rotate(ts, offset))
    return np.linalg.solve(a0, a1)


def closed_form_holonomy(product, t):
    """Closed form of the composed homoclinic holonomy at one point."""
    return closed_form_holonomy_many(product, np.array([wrap_unit(t)]))[0]


@dataclass
class OseledetsDirections:
    """Expanding and contracting directions at one circle point."""

    e_plus: np.ndarray
    e_minus: np.ndarray
    residual: float
    converged: bool
    depth: int


def _unit_products(mats):
    """Ordered products ``mats[n-1] @ ... @ mats[0]`` at unit Frobenius norm.

    ``mats`` has shape (..., n, d, d) and the result (..., d, d).  Adjacent
    factors are multiplied in pairs, an odd last factor is carried to the
    next pass (an even count needs no copy), and every pair product is
    rescaled to unit norm, so no product depth can overflow.
    """
    stack = np.asarray(mats, dtype=float)
    while stack.shape[-3] > 1:
        n = stack.shape[-3]
        pairs = np.matmul(stack[..., 1::2, :, :], stack[..., 0:n - 1:2, :, :])
        pairs /= _frobenius(pairs)
        stack = pairs if n % 2 == 0 else np.concatenate(
            [pairs, stack[..., n - 1:, :, :]], axis=-3)
    product = stack[..., 0, :, :]
    return product / _frobenius(product)


def _frobenius(mats):
    """Frobenius norms of a (..., d, d) stack, shape (..., 1, 1).

    This is the reduction ``np.linalg.norm(mats, axis=(-2, -1))`` makes, so
    the values are the same bit for bit, without its per-call dispatch.
    """
    return np.sqrt(np.add.reduce(mats * mats, axis=(-2, -1), keepdims=True))


def oseledets_directions(angle, mat_map, t):
    """Oseledets directions of a single 2x2 quasi-periodic map at ``t``.

    With n the pullback depth, e_plus is the top left singular vector of
    the past product, the 2n steps that end at ``t``; e_minus is the bottom
    right singular vector of the future product, the 2n steps that start
    at ``t``.  The depth-n estimates use the last n past and the first n
    future steps; the residual is the larger projective distance between
    the two depths and convergence means residual <= ``DIRECTION_TOL``.
    The pullback runs at n = ``SHORT_PULLBACK_DEPTH`` first and, where that
    has not converged, again at n = ``PULLBACK_DEPTH``, whose result is
    returned whether it converged or not; ``depth`` says which n it is.
    """
    if mat_map.dim != 2:
        raise ValueError("oseledets_directions handles 2x2 maps")
    t = wrap_unit(t)
    short = _pullback(angle, mat_map, t, SHORT_PULLBACK_DEPTH)
    if short.converged:
        return short
    return _pullback(angle, mat_map, t, PULLBACK_DEPTH)


def _pullback(angle, mat_map, t, depth):
    """:func:`oseledets_directions` at one depth, for ``t`` in [0, 1).

    The 4n steps lie on one base orbit from t - 2n theta: the first 2n
    are the past, the last 2n the future.  All of them are scaled by one
    power of two, taken from their largest entry.  The scaling is exact,
    so a map in range keeps every bit, and the map certification floor
    (``cocycle.DET_FLOOR`` times the Hadamard bound) keeps each row's norm
    on the certification grid within 1e10 of its largest, which bounds
    how far one row's entries spread over the steps of a call.  The four
    singular directions come in closed form, on Python floats.
    """
    n2 = 2 * depth
    # the start is taken in longdouble, where 2n theta is exact for
    # 2n < 2^11, and the orbit's running sum is longdouble too, so every
    # point, t among them, lies within an ulp of t + j theta
    start = float((np.longdouble(t) - n2 * np.longdouble(angle)) % 1.0)
    orbit = base_orbit([angle], constant_word(2 * n2), start)
    steps = mat_map.eval_many(orbit[:-1])
    # one exponent for all steps; np.ldexp, unlike a multiplication by
    # 2.0 ** -e, also takes the exponent of a subnormal largest entry
    np.ldexp(steps, -math.frexp(np.abs(steps).max())[1], out=steps)
    # halves: past first n, past last n, future first n, future last n
    halves = _unit_products(steps.reshape(4, depth, 2, 2))
    # past whole, past last n, future whole, future first n; the wholes
    # are multiplied straight into their slots
    mats = halves[[1, 1, 3, 2]]
    np.matmul(halves[1::2], halves[0::2], out=mats[::2])
    past, past_half, future, future_half = mats.reshape(4, 4).tolist()
    e_plus = _top_left_direction(*past)
    e_minus = _bottom_right_direction(*future)
    residual = max(projective_distance(e_plus, _top_left_direction(*past_half)),
                   projective_distance(e_minus, _bottom_right_direction(*future_half)))
    return OseledetsDirections(
        e_plus=np.array(e_plus), e_minus=np.array(e_minus), residual=residual,
        converged=residual <= DIRECTION_TOL, depth=depth,
    )


def _top_left_direction(a, b, c, d):
    """Unit top left singular vector of [[a, b], [c, d]], as a tuple.

    It is the top eigenvector of M M^T = [[p, r], [r, q]], at half the
    angle atan2(2 r, p - q).
    """
    phi = 0.5 * math.atan2(2.0 * (a * c + b * d), (a * a + b * b) - (c * c + d * d))
    return math.cos(phi), math.sin(phi)


def _bottom_right_direction(a, b, c, d):
    """Unit bottom right singular vector of [[a, b], [c, d]], as a tuple.

    The top right singular vector of M is the top left one of M^T; the
    bottom one is that turned by pi / 2.
    """
    top0, top1 = _top_left_direction(a, c, b, d)
    return -top1, top0


@dataclass
class OseledetsField:
    """Sampled Oseledets directions over a set of circle points."""

    ts: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    residual: np.ndarray
    converged: np.ndarray

    def to_csv(self, path, provenance=None):
        """Write columns t, e_plus_angle, e_minus_angle, residual, converged.

        Angles parameterize the projective line: atan2 folded into [0, pi).
        Provenance key/value pairs go into '#'-prefixed header lines.
        """
        from .tables import ResultTable

        def line_angle(vecs):
            return np.mod(np.arctan2(vecs[:, 1], vecs[:, 0]), np.pi)

        table = ResultTable(
            columns=["t", "e_plus_angle", "e_minus_angle", "residual", "converged"],
            rows=[
                [float(t), float(ap), float(am), float(r), int(c)]
                for t, ap, am, r, c in zip(
                    self.ts, line_angle(self.e_plus), line_angle(self.e_minus),
                    self.residual, self.converged,
                )
            ],
            provenance=dict(provenance or {}),
        )
        table.to_csv(path)


def oseledets_field(angle, mat_map, ts):
    """:func:`oseledets_directions` at every point of ``ts``, as one field."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    results = [oseledets_directions(angle, mat_map, t) for t in ts]
    return OseledetsField(
        ts=ts,
        e_plus=np.array([r.e_plus for r in results]).reshape(-1, 2),
        e_minus=np.array([r.e_minus for r in results]).reshape(-1, 2),
        residual=np.array([r.residual for r in results], dtype=float),
        converged=np.array([r.converged for r in results], dtype=bool),
    )
