"""Shared builders for the test suite."""

import math

import numpy as np

import cocyclelab as cl

SILVER = 0.41421356237309515


def random_tuple(d, seed, degree=2, n_maps=2, coeff_scale=0.1):
    """Seeded invertible tuple: constants near 2*I, small trig coefficients."""
    rng = np.random.default_rng(seed)
    angles = [cl.GOLDEN_MEAN, SILVER, 0.2360679774997897][:n_maps]
    maps = []
    for _ in range(n_maps):
        const = 2.0 * np.eye(d) + 0.3 * rng.standard_normal((d, d))
        cos = coeff_scale * rng.standard_normal((degree, d, d))
        sin = coeff_scale * rng.standard_normal((degree, d, d))
        maps.append(cl.TrigMatrixMap(const, cos, sin))
    return cl.RandomProduct(angles, maps)


def axis_pair(rotation_turns=0.125):
    """diag(2, 1/2) and its right-rotation, the exact hand-computable pair."""
    a0 = cl.TrigMatrixMap.constant(np.diag([2.0, 0.5]), group_tag=cl.SL2)
    a1 = cl.right_rotate(a0, rotation_turns)
    return cl.RandomProduct([cl.GOLDEN_MEAN, SILVER], [a0, a1])


def schrodinger_pair(energy=3.0, seed=None):
    """Two-symbol Schrodinger tuple with fixed low-degree potentials."""
    u0 = cl.TrigPolynomial(0.0, [0.8], [0.0])
    u1 = cl.TrigPolynomial(0.2, [0.0], [0.5])
    maps = [cl.make_schrodinger(cl.shift_potential(-u, energy)) for u in (u0, u1)]
    product = cl.RandomProduct([cl.GOLDEN_MEAN, SILVER], maps)
    return product, (u0, u1)


def pipeline_tuple_d3(seed=2024):
    """diag(4, 2, 1) plus a seeded trig perturbation of the identity."""
    rng = np.random.default_rng(seed)
    a0 = cl.TrigMatrixMap.constant(np.diag([4.0, 2.0, 1.0]), group_tag=cl.DIAGONAL)
    const = np.eye(3) + 0.25 * rng.standard_normal((3, 3))
    cos = 0.12 * rng.standard_normal((2, 3, 3))
    sin = 0.12 * rng.standard_normal((2, 3, 3))
    a1 = cl.TrigMatrixMap(const, cos, sin)
    return cl.RandomProduct([cl.GOLDEN_MEAN, SILVER], [a0, a1])


def inverse_word_product_reference(product, word, t):
    """The product of inverses along a backward tail, as the library once had it.

    ``word`` lists backward symbols most recent first: word[j] acted on the
    circle point u_{j+1} = t - angles[word[0]] - ... - angles[word[j]], and
    the result is A(u_m)^-1 ... A(u_1)^-1.  The backward orbit is the base
    orbit under the negated angles.
    """
    w = cl.as_word(word, product.n_symbols)
    orbit = cl.base_orbit(-product.angles, w, t)
    out = np.eye(product.dim)
    for s, u in zip(w, orbit[1:]):
        out = np.linalg.inv(product.maps[s].eval(u)) @ out
    return out


def unstable_holonomy_offset_reference(angles, x_back, y_back):
    """Circle offset of the unstable base holonomy, as the library once had it."""
    angles = np.asarray(angles, dtype=float)
    m = cl.forward_agreement_index(x_back, y_back)
    x = cl.as_word(np.asarray(x_back)[:m], len(angles))
    y = cl.as_word(np.asarray(y_back)[:m], len(angles))
    return cl.wrap_unit(math.fsum(angles[y]) - math.fsum(angles[x]))
