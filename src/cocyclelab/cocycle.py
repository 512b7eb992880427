"""Quasi-periodic matrix maps and random products of them.

A :class:`TrigPolynomial` is a real trigonometric polynomial on the circle
with values of any shape: a scalar Schrodinger potential, or a (d, d)
perturbation direction that may be singular.  Polynomials of one shape add
and scale coefficient-wise and read and write one coefficient row per
entry.  A :class:`TrigMatrixMap` is a (d, d) polynomial certified
invertible and tagged with its group; a sum or multiple involving a map is
certified again.  A :class:`RandomProduct` bundles k+1 such maps with their
rotation angles and sampling weights.  Products along words are evaluated
by :func:`word_product`; a product along a backward tail is the forward
product along the reversed word, started where the tail ends (see
:func:`cocyclelab.holonomy.linear_holonomy`).
"""

from __future__ import annotations

import math

import numpy as np

from ._cofactor import _max_row_norms
from .circle import as_word, base_orbit, wrap_unit
from .errors import GroupTagError, InvalidWordError, NonInvertibleMapError

GENERAL = "GENERAL"
SL2 = "SL2"
DIAGONAL = "DIAGONAL"
SCHRODINGER = "SCHRODINGER"
GROUP_TAGS = frozenset({GENERAL, SL2, DIAGONAL, SCHRODINGER})

# Invertibility and tag certification run on this uniform grid.
CERT_GRID = 1 << 10
DET_FLOOR = 1e-10
SL2_DET_TOL = 1e-9


def _pad_modes(arr, k):
    out = np.zeros((k,) + arr.shape[1:])
    out[: arr.shape[0]] = arr
    return out


class TrigPolynomial:
    """Trigonometric polynomial t -> c0 + sum_m a_m cos(2 pi m t) + b_m sin(2 pi m t).

    ``const`` sets the value shape: ``()`` for a scalar potential, ``(d, d)``
    for a matrix map or a perturbation direction.  ``cos_coeffs`` and
    ``sin_coeffs`` have shape (degree,) + that shape, one slice per frequency
    m = 1..degree; the shorter one is padded with zero modes.
    """

    def __init__(self, const, cos_coeffs=None, sin_coeffs=None):
        const = np.array(const, dtype=float)
        shape = const.shape
        modes = [np.zeros((0,) + shape) if c is None else np.array(c, dtype=float)
                 for c in (cos_coeffs, sin_coeffs)]
        if any(c.ndim != const.ndim + 1 or c.shape[1:] != shape for c in modes):
            raise ValueError(f"frequency coefficients must have shape (degree,) + {shape}")
        k = max(c.shape[0] for c in modes)
        cos, sin = (_pad_modes(c, k) for c in modes)
        for arr in (const, cos, sin):
            if not np.all(np.isfinite(arr)):
                raise ValueError("coefficients must be finite")
        self.const, self.cos_coeffs, self.sin_coeffs = const, cos, sin

    @property
    def degree(self):
        return self.cos_coeffs.shape[0]

    @classmethod
    def from_rows(cls, shape, rows, **kw):
        """Build from one row [c0, a1, b1, ..., aK, bK] per entry, in row-major order."""
        shape = tuple(shape)
        ragged = len({np.shape(r) for r in rows}) != 1
        table = np.empty(0) if ragged else np.array(rows, dtype=float)
        n = math.prod(shape)
        if table.ndim != 2 or len(table) != n or table.shape[1] % 2 != 1:
            raise ValueError(f"need {n} coefficient rows of one odd length 1 + 2*degree")
        return cls(table[:, 0].reshape(shape),
                   table[:, 1::2].T.reshape((-1,) + shape),
                   table[:, 2::2].T.reshape((-1,) + shape), **kw)

    def to_rows(self):
        """One row [c0, a1, b1, ..., aK, bK] per entry, in row-major order."""
        n, k = self.const.size, self.degree
        table = np.empty((n, 1 + 2 * k))
        table[:, 0] = self.const.ravel()
        table[:, 1::2] = self.cos_coeffs.reshape(k, n).T
        table[:, 2::2] = self.sin_coeffs.reshape(k, n).T
        return table.tolist()

    def eval_many(self, ts):
        """Evaluate at an array of circle points; returns shape (n,) + value shape.

        The (n, degree) cosine and sine phases go to :meth:`_eval_harmonics`,
        which broadcasts a constant.  An empty ``ts`` gives shape (0,) +
        value shape.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty((len(ts),) + self.const.shape)
        phases = 2.0 * np.pi * np.outer(ts, np.arange(1, self.degree + 1))
        return self._eval_harmonics(np.cos(phases), np.sin(phases), out)

    def _eval_harmonics(self, cos, sin, out):
        """Values at n points from their (n, degree) harmonics, into ``out``.

        Column m - 1 of ``cos`` and ``sin`` holds cos(2 pi m t) and
        sin(2 pi m t).  They multiply (degree, value size) views of the
        coefficients and accumulate onto the constant in a flat (n, value
        size) view of ``out``, a C-contiguous float array of shape (n,) +
        value shape, which is returned.
        """
        out[:] = self.const
        k = self.degree
        if k:
            size = self.const.size
            flat = out.reshape(len(out), size)
            flat += cos @ self.cos_coeffs.reshape(k, size)
            flat += sin @ self.sin_coeffs.reshape(k, size)
        return out

    def eval(self, t):
        """Evaluate at a single circle point; returns the value shape.

        From degree 2 on, the value may differ in the last bit from the same
        point evaluated in a batch by :meth:`eval_many`: the one-row matrix
        product takes another BLAS path, and a sum of two or more modes
        rounds differently there.  An oracle that must match a batched route
        bit for bit evaluates its points in batches too.
        """
        return self.eval_many(np.array([t]))[0]

    def __add__(self, other):
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        if other.const.shape != self.const.shape:
            raise ValueError("shape mismatch")
        k = max(self.degree, other.degree)
        return _combine(
            (self, other),
            self.const + other.const,
            _pad_modes(self.cos_coeffs, k) + _pad_modes(other.cos_coeffs, k),
            _pad_modes(self.sin_coeffs, k) + _pad_modes(other.sin_coeffs, k),
        )

    def __mul__(self, scalar):
        c = float(scalar)
        return _combine((self,), c * self.const, c * self.cos_coeffs, c * self.sin_coeffs)

    __rmul__ = __mul__

    def __neg__(self):
        return _combine((self,), -self.const, -self.cos_coeffs, -self.sin_coeffs)


def _combine(terms, const, cos, sin):
    """A sum or multiple of ``terms``: a plain polynomial unless a map is among
    them, then a certified map, DIAGONAL only if every term is a DIAGONAL map."""
    tags = [getattr(term, "group_tag", None) for term in terms]
    if not any(tags):
        return TrigPolynomial(const, cos, sin)
    tag = DIAGONAL if all(t == DIAGONAL for t in tags) else GENERAL
    return TrigMatrixMap(const, cos, sin, group_tag=tag)


class TrigMatrixMap(TrigPolynomial):
    """A (d, d) :class:`TrigPolynomial` certified as one map of a cocycle.

    ``group_tag`` is one of GENERAL, SL2, DIAGONAL, SCHRODINGER.
    Construction certifies invertibility on a 1024-point grid (min |det|
    above ``DET_FLOOR`` times the Hadamard bound prod_i max_t |row_i|, so
    rescaling rows cannot change it), and the extra structural invariant
    of the declared tag.
    """

    def __init__(self, const, cos_coeffs=None, sin_coeffs=None, group_tag=GENERAL):
        super().__init__(const, cos_coeffs, sin_coeffs)
        if self.const.ndim != 2 or self.const.shape[0] != self.const.shape[1]:
            raise ValueError("constant term must be a square matrix")
        if group_tag not in GROUP_TAGS:
            raise GroupTagError(f"unknown group tag {group_tag!r}")
        self.group_tag = group_tag
        self._certify()

    @property
    def dim(self):
        return self.const.shape[0]

    @property
    def potential(self):
        """The entry phi of a SCHRODINGER map [[phi, -1], [1, 0]]; None otherwise."""
        if self.group_tag != SCHRODINGER:
            return None
        return TrigPolynomial(self.const[0, 0], self.cos_coeffs[:, 0, 0],
                              self.sin_coeffs[:, 0, 0])

    @classmethod
    def constant(cls, matrix, group_tag=GENERAL):
        return cls(np.asarray(matrix, dtype=float), group_tag=group_tag)

    def _certify(self):
        d = self.dim
        if self.group_tag == DIAGONAL:
            off = ~np.eye(d, dtype=bool)
            if (np.any(self.const[off]) or np.any(self.cos_coeffs[:, off])
                    or np.any(self.sin_coeffs[:, off])):
                raise GroupTagError("DIAGONAL map has nonzero off-diagonal coefficients")
        if self.group_tag == SCHRODINGER:
            if d != 2:
                raise GroupTagError("SCHRODINGER maps are 2x2")
            fixed = np.array([[0.0, -1.0], [1.0, 0.0]])
            mask = np.array([[False, True], [True, True]])
            if (np.any(self.const[mask] != fixed[mask])
                    or np.any(self.cos_coeffs[:, mask]) or np.any(self.sin_coeffs[:, mask])):
                raise GroupTagError(
                    "SCHRODINGER map must have fixed entries [[phi, -1], [1, 0]]"
                )
        grid = np.arange(CERT_GRID) / CERT_GRID
        vals = self.eval_many(grid)
        # Scaled by a power of two, the largest entry is near 1, so neither the
        # dets nor the squared row norms over- or underflow.  The scaling is
        # exact, so a map whose values are in range is decided as unscaled.
        shift = -int(np.frexp(np.max(np.abs(vals)))[1])
        scaled = np.ldexp(vals, shift)
        worst = np.min(np.abs(np.linalg.det(scaled)))
        bound = math.prod(_max_row_norms(scaled.transpose(1, 2, 0)))
        if not worst > DET_FLOOR * bound:
            with np.errstate(over="ignore", under="ignore"):
                worst, bound = np.ldexp([worst, bound], -d * shift)
            raise NonInvertibleMapError(
                f"matrix map is numerically singular on the certification grid "
                f"(min |det| = {worst:.3e} <= {DET_FLOOR} x Hadamard bound {bound:.3e})"
            )
        if self.group_tag == SL2:
            if d != 2:
                raise GroupTagError("SL2 maps are 2x2")
            drift = np.max(np.abs(np.linalg.det(vals) - 1.0))
            if not drift < SL2_DET_TOL:
                raise GroupTagError(
                    f"SL2 map has |det - 1| up to {drift:.3e} on the certification grid"
                )


def shift_potential(potential, offset):
    """Add a constant to a scalar potential."""
    return TrigPolynomial(
        potential.const + float(offset), potential.cos_coeffs, potential.sin_coeffs
    )


def make_schrodinger(potential):
    """Transfer-matrix map [[phi(t), -1], [1, 0]] of a scalar potential phi."""
    k = potential.degree
    const = np.array([[potential.const, -1.0], [1.0, 0.0]])
    cos = np.zeros((k, 2, 2))
    sin = np.zeros((k, 2, 2))
    cos[:, 0, 0] = potential.cos_coeffs
    sin[:, 0, 0] = potential.sin_coeffs
    return TrigMatrixMap(const, cos, sin, group_tag=SCHRODINGER)


def rescale_diagonal(mat_map, factors):
    """Multiply the i-th diagonal entry function by factors[i] (all > 0)."""
    if mat_map.group_tag != DIAGONAL:
        raise GroupTagError("rescale_diagonal requires a DIAGONAL map")
    b = np.asarray(factors, dtype=float)
    if b.shape != (mat_map.dim,):
        raise ValueError(f"need {mat_map.dim} factors")
    if not np.all(np.isfinite(b)) or np.any(b <= 0.0):
        raise ValueError("rescale factors must be finite and positive")
    scale = b[:, None]
    return TrigMatrixMap(
        mat_map.const * scale,
        mat_map.cos_coeffs * scale,
        mat_map.sin_coeffs * scale,
        group_tag=DIAGONAL,
    )


def right_rotate(mat_map, turns):
    """Compose a 2x2 map on the right with the rotation by ``turns`` of a turn.

    The result is t -> A(t) R where R rotates by 2*pi*turns; coefficients
    transform exactly, so the degree is unchanged.
    """
    if mat_map.dim != 2:
        raise ValueError("right_rotate acts on 2x2 maps")
    a = 2.0 * np.pi * float(turns)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    tag = SL2 if mat_map.group_tag in (SL2, SCHRODINGER) else GENERAL
    return TrigMatrixMap(
        mat_map.const @ rot,
        np.einsum("kij,jl->kil", mat_map.cos_coeffs, rot),
        np.einsum("kij,jl->kil", mat_map.sin_coeffs, rot),
        group_tag=tag,
    )


class RandomProduct:
    """A finite family of quasi-periodic matrix maps sampled i.i.d. by weight.

    Symbol s pairs the map ``maps[s]`` with the finite rotation angle
    ``angles[s]``; weights are positive and sum to 1 (tolerance 1e-12).
    """

    def __init__(self, angles, maps, weights=None):
        self.maps = list(maps)
        if not self.maps:
            raise ValueError("need at least one map")
        dims = {m.dim for m in self.maps}
        if len(dims) != 1:
            raise ValueError("all maps must share one dimension")
        angles = np.atleast_1d(np.asarray(angles, dtype=float))
        if len(angles) != len(self.maps) or not np.all(np.isfinite(angles)):
            raise ValueError("need one finite rotation angle per map")
        self.angles = wrap_unit(angles)
        if weights is None:
            weights = np.full(len(self.maps), 1.0 / len(self.maps))
        self.weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if len(self.weights) != len(self.maps):
            raise ValueError("need one weight per map")
        if np.any(self.weights <= 0.0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be positive and finite")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")

    @property
    def dim(self):
        return self.maps[0].dim

    @property
    def n_symbols(self):
        return len(self.maps)

    def solo(self, symbol=0):
        """The deterministic sub-product driven by a single symbol."""
        return RandomProduct([self.angles[symbol]], [self.maps[symbol]], [1.0])


def word_product(product, word, t):
    """Forward cocycle product A_{w_{n-1}}(t_{n-1}) ... A_{w_0}(t_0).

    t_j is the base orbit of ``t`` under the word; the empty word returns
    the identity.
    """
    w = as_word(word, product.n_symbols)
    orbit = base_orbit(product.angles, w, t)
    out = np.eye(product.dim)
    for s, u in zip(w, orbit[:-1]):
        out = product.maps[s].eval(u) @ out
    return out

