"""Shared builders for the test suite."""

import math

import numpy as np

import cocyclelab as cl
from cocyclelab.circle import _wrapped_cumulative
from cocyclelab.lyapunov import _substreams

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


def draw_replicates_reference(product, seed, n_iter, n_rep, with_vector):
    """Words, full (n_rep, n_iter) start points and unit start vectors, each
    word drawn whole and its points by one cumulative sum, as the library once
    had it."""
    words = np.empty((n_rep, n_iter), dtype=np.min_scalar_type(product.n_symbols - 1))
    starts = np.empty((n_rep, n_iter))
    vectors = np.empty((n_rep, product.dim)) if with_vector else None
    for r, rng in enumerate(_substreams(seed, n_rep)):
        words[r] = rng.choice(product.n_symbols, size=n_iter, p=product.weights)
        starts[r, 0] = rng.random()
        starts[r, 1:] = _wrapped_cumulative(starts[r, 0], product.angles[words[r, :-1]])
        if with_vector:
            vec = rng.standard_normal(product.dim)
            vectors[r] = vec / np.linalg.norm(vec)
    return words, starts, vectors


def step_matrices_reference(product, words, starts, period):
    """A chunk's padded step matrices by boolean gather and scatter, as the
    library once had it."""
    n_rep, n = words.shape
    d = product.dim
    mats = np.empty((n_rep, -(-n // period) * period, d, d))
    mats[:, n:] = np.eye(d)
    body = mats[:, :n]
    for s in range(product.n_symbols):
        mask = words == s
        if np.any(mask):
            body[mask] = product.maps[s].eval_many(starts[mask])
    return mats


def qr_step_reference(image):
    """Q and |diag R| of an (n_rep, d, d) stack, as the frame loop once had
    them: the reduced ``np.linalg.qr`` and R's diagonal, block by block."""
    frame, upper = np.linalg.qr(image)
    return frame, np.abs(np.diagonal(upper, axis1=1, axis2=2))


def unstable_holonomy_offset_reference(angles, x_back, y_back):
    """Circle offset of the unstable base holonomy, as the library once had it."""
    angles = np.asarray(angles, dtype=float)
    m = cl.forward_agreement_index(x_back, y_back)
    x = cl.as_word(np.asarray(x_back)[:m], len(angles))
    y = cl.as_word(np.asarray(y_back)[:m], len(angles))
    return cl.wrap_unit(math.fsum(angles[y]) - math.fsum(angles[x]))


def bisect_reference(f, lo, hi, xtol):
    """Lockstep bisection, one halving per call of f, as the library once had it.

    scipy.optimize.bisect's arithmetic for every bracket, including its sign
    tests by product, which under/overflow for values far from 1.
    """
    lo = np.array(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.size
    ends = f(np.concatenate([lo, hi]))
    f_lo, f_hi = ends[:n], ends[n:]
    if np.any(f_lo * f_hi > 0.0):
        raise ValueError("f must change sign on every bracket")
    roots = np.where(f_lo == 0.0, lo, hi)
    step = hi - lo
    live = np.nonzero((f_lo != 0.0) & (f_hi != 0.0))[0]
    for _ in range(cl.certify._MAX_REFINE_ITER):
        if not live.size:
            break
        step[live] *= 0.5
        mid = lo[live] + step[live]
        f_mid = f(mid)
        keep = f_mid * f_lo[live] >= 0.0
        lo[live[keep]] = mid[keep]
        done = (f_mid == 0.0) | (np.abs(step[live])
                                 < xtol + cl.certify._BISECT_RTOL * np.abs(mid))
        roots[live[done]] = mid[done]
        live = live[~done]
    roots[live] = lo[live]
    return roots


def diagonal_first_tuple_d4(seed):
    """diag(exp(U(-1.5, 1.5))) then a seeded degree-2 trig map near I.

    Drawn like the d = 4 certify inputs of ``perfbench/gen.py``: the first
    map is a constant DIAGONAL one, as the d > 2 pipeline requires.
    """
    rng = np.random.default_rng(seed)
    a0 = cl.TrigMatrixMap.constant(np.diag(np.exp(rng.uniform(-1.5, 1.5, 4))),
                                   group_tag=cl.DIAGONAL)
    const = np.eye(4) + 0.25 * rng.standard_normal((4, 4))
    cos = 0.12 * rng.standard_normal((2, 4, 4))
    sin = 0.12 * rng.standard_normal((2, 4, 4))
    a1 = cl.TrigMatrixMap(const, cos, sin)
    return cl.RandomProduct([cl.GOLDEN_MEAN, SILVER], [a0, a1])


def conjugated_diagonal_tuple(d, seed, m=1):
    """A tuple A_s(t) = B(t + theta_s) D_s(t) B(t)^-1 with a known spectrum.

    B(t) = R(m t) C, where R(x) rotates by 2 pi x in the (e1, e2) plane and
    C is a seeded constant near the identity.  Every product along a word
    is B at its end times the diagonal product times B^-1 at its start, and
    B is bounded with a bounded inverse, so the tuple has the spectrum of
    the diagonal tuple of the D_s: ``diagonal_spectrum`` of the second
    tuple returned.  The D_s are seeded zero-free diagonal maps of degree 1,
    so each A_s is a trig polynomial of degree K = 1 + 2m, and a DFT on
    2K + 2 points gives its coefficients exactly.
    """
    rng = np.random.default_rng(seed)
    angles = [cl.GOLDEN_MEAN, SILVER]
    conj = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    conj_inv = np.linalg.inv(conj)

    def rotation(x):
        out = np.repeat(np.eye(d)[None], len(x), axis=0)
        cos, sin = np.cos(2.0 * np.pi * x), np.sin(2.0 * np.pi * x)
        out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = cos, -sin, sin, cos
        return out

    # exponents at least about 0.1 apart, in a seeded order along the
    # diagonal
    levels = 0.3 * rng.permutation(d)
    degree = 1 + 2 * m
    ts = np.arange(2 * degree + 2) / (2 * degree + 2)
    maps, diagonal_maps = [], []
    for theta in angles:
        const = (np.exp(levels - 0.15 * (d - 1) + rng.uniform(-0.05, 0.05, d))
                 * rng.choice([-1.0, 1.0], d))
        # a first mode below half the constant keeps every entry off zero
        amp = 0.5 * np.abs(const) * rng.uniform(0.0, 1.0, d)
        phase = rng.uniform(0.0, 2.0 * np.pi, d)
        diag = cl.TrigMatrixMap(np.diag(const), np.diag(amp * np.cos(phase))[None],
                                np.diag(amp * np.sin(phase))[None], group_tag=cl.DIAGONAL)
        values = (rotation(m * (ts + theta)) @ conj @ diag.eval_many(ts) @ conj_inv
                  @ rotation(-m * ts))
        modes = np.fft.rfft(values, axis=0) / len(ts)
        maps.append(cl.TrigMatrixMap(modes[0].real, 2.0 * modes[1:degree + 1].real,
                                     -2.0 * modes[1:degree + 1].imag))
        diagonal_maps.append(diag)
    return cl.RandomProduct(angles, maps), cl.RandomProduct(angles, diagonal_maps)
