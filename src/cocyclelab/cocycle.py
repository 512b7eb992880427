"""Quasi-periodic matrix maps and random products of them.

A :class:`TrigMatrixMap` is a matrix whose entries are real trigonometric
polynomials on the circle; a :class:`RandomProduct` bundles k+1 such maps
with their rotation angles and sampling weights.  Products along words are
evaluated by :func:`word_product` (forward branch) and
:func:`inverse_word_product` (backward branch).
"""

from __future__ import annotations

import math

import numpy as np

from .circle import as_word, base_orbit, backward_orbit, wrap_unit
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


def _coeff_arrays(const, cos_coeffs, sin_coeffs, d=None):
    const = np.array(const, dtype=float)
    if const.ndim != 2 or const.shape[0] != const.shape[1]:
        raise ValueError("constant term must be a square matrix")
    n = const.shape[0]
    if d is not None and n != d:
        raise ValueError(f"expected dimension {d}, got {n}")
    if cos_coeffs is None and sin_coeffs is None:
        cos = np.zeros((0, n, n))
        sin = np.zeros((0, n, n))
    else:
        cos = np.zeros((0, n, n)) if cos_coeffs is None else np.array(cos_coeffs, float)
        sin = np.zeros((0, n, n)) if sin_coeffs is None else np.array(sin_coeffs, float)
        k = max(cos.shape[0] if cos.ndim == 3 else -1, sin.shape[0] if sin.ndim == 3 else -1)
        if cos.ndim != 3 or sin.ndim != 3:
            raise ValueError("frequency coefficients must have shape (degree, d, d)")
        cos = _pad_modes(cos, k)
        sin = _pad_modes(sin, k)
        if cos.shape[1:] != (n, n) or sin.shape[1:] != (n, n):
            raise ValueError("frequency coefficients must have shape (degree, d, d)")
    for arr in (const, cos, sin):
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
    return const, cos, sin


def _pad_modes(arr, k):
    if arr.shape[0] == k:
        return arr
    out = np.zeros((k,) + arr.shape[1:])
    out[: arr.shape[0]] = arr
    return out


def entry_rows_to_arrays(d, rows):
    """Parse d*d rows [c0, a1, b1, ..., aK, bK] into (const, cos, sin) arrays."""
    rows = [np.asarray(r, dtype=float) for r in rows]
    if len(rows) != d * d:
        raise ValueError(f"expected {d * d} coefficient rows, got {len(rows)}")
    lengths = {len(r) for r in rows}
    if len(lengths) != 1 or (next(iter(lengths)) % 2) != 1:
        raise ValueError("coefficient rows must share an odd length 1 + 2*degree")
    k = (next(iter(lengths)) - 1) // 2
    const = np.empty((d, d))
    cos = np.zeros((k, d, d))
    sin = np.zeros((k, d, d))
    for idx, row in enumerate(rows):
        i, j = divmod(idx, d)
        const[i, j] = row[0]
        cos[:, i, j] = row[1::2]
        sin[:, i, j] = row[2::2]
    return const, cos, sin


class TrigMatrixMap:
    """Matrix of trigonometric polynomials t -> c0 + sum_m a_m cos(2 pi m t) + b_m sin(2 pi m t).

    Parameters
    ----------
    const : (d, d) array
        Constant (frequency-zero) coefficients.
    cos_coeffs, sin_coeffs : (degree, d, d) arrays, optional
        Cosine and sine coefficients per frequency m = 1..degree.
    group_tag : str
        One of GENERAL, SL2, DIAGONAL, SCHRODINGER.  Construction certifies
        invertibility (|det| > 1e-10) on a 1024-point grid, and the extra
        structural invariant of the declared tag.
    """

    def __init__(self, const, cos_coeffs=None, sin_coeffs=None, group_tag=GENERAL):
        self.const, self.cos_coeffs, self.sin_coeffs = _coeff_arrays(
            const, cos_coeffs, sin_coeffs
        )
        if group_tag not in GROUP_TAGS:
            raise GroupTagError(f"unknown group tag {group_tag!r}")
        self.group_tag = group_tag
        self._certify()

    @property
    def dim(self):
        return self.const.shape[0]

    @property
    def degree(self):
        return self.cos_coeffs.shape[0]

    @property
    def potential(self):
        """The entry phi of a SCHRODINGER map [[phi, -1], [1, 0]]; None otherwise."""
        if self.group_tag != SCHRODINGER:
            return None
        return ScalarPotential(self.const[0, 0], self.cos_coeffs[:, 0, 0],
                               self.sin_coeffs[:, 0, 0])

    @classmethod
    def constant(cls, matrix, group_tag=GENERAL):
        return cls(np.asarray(matrix, dtype=float), group_tag=group_tag)

    @classmethod
    def from_entry_rows(cls, d, rows, group_tag=GENERAL):
        """Build from d*d rows [c0, a1, b1, ..., aK, bK] in row-major entry order."""
        return cls(*entry_rows_to_arrays(d, rows), group_tag=group_tag)

    def to_entry_rows(self):
        d, k = self.dim, self.degree
        rows = []
        for i in range(d):
            for j in range(d):
                row = np.empty(1 + 2 * k)
                row[0] = self.const[i, j]
                row[1::2] = self.cos_coeffs[:, i, j]
                row[2::2] = self.sin_coeffs[:, i, j]
                rows.append(row.tolist())
        return rows

    def eval_many(self, ts):
        """Evaluate at an array of circle points; returns shape (n, d, d)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty((len(ts),) + self.const.shape)
        out[:] = self.const
        k = self.degree
        if k:
            phases = 2.0 * np.pi * np.outer(ts, np.arange(1, k + 1))
            out += np.tensordot(np.cos(phases), self.cos_coeffs, axes=(1, 0))
            out += np.tensordot(np.sin(phases), self.sin_coeffs, axes=(1, 0))
        return out

    def eval(self, t):
        """Evaluate at a single circle point; returns shape (d, d)."""
        return self.eval_many(np.array([t]))[0]

    def __add__(self, other):
        if not isinstance(other, TrigMatrixMap):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        k = max(self.degree, other.degree)
        tag = DIAGONAL if self.group_tag == other.group_tag == DIAGONAL else GENERAL
        return TrigMatrixMap(
            self.const + other.const,
            _pad_modes(self.cos_coeffs, k) + _pad_modes(other.cos_coeffs, k),
            _pad_modes(self.sin_coeffs, k) + _pad_modes(other.sin_coeffs, k),
            group_tag=tag,
        )

    def __mul__(self, scalar):
        c = float(scalar)
        tag = DIAGONAL if self.group_tag == DIAGONAL else GENERAL
        return TrigMatrixMap(
            c * self.const, c * self.cos_coeffs, c * self.sin_coeffs, group_tag=tag
        )

    __rmul__ = __mul__

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
        dets = np.linalg.det(vals)
        worst = np.min(np.abs(dets))
        if not worst > DET_FLOOR:
            raise NonInvertibleMapError(
                f"matrix map is numerically singular on the certification grid "
                f"(min |det| = {worst:.3e} <= {DET_FLOOR})"
            )
        if self.group_tag == SL2:
            if d != 2:
                raise GroupTagError("SL2 maps are 2x2")
            drift = np.max(np.abs(dets - 1.0))
            if not drift < SL2_DET_TOL:
                raise GroupTagError(
                    f"SL2 map has |det - 1| up to {drift:.3e} on the certification grid"
                )


class ScalarPotential:
    """Scalar trigonometric polynomial on the circle (same layout as one map entry)."""

    def __init__(self, const=0.0, cos_coeffs=None, sin_coeffs=None):
        self.const = float(const)
        self.cos_coeffs = np.zeros(0) if cos_coeffs is None else np.asarray(cos_coeffs, float).copy()
        self.sin_coeffs = np.zeros(0) if sin_coeffs is None else np.asarray(sin_coeffs, float).copy()
        k = max(len(self.cos_coeffs), len(self.sin_coeffs))
        self.cos_coeffs = np.pad(self.cos_coeffs, (0, k - len(self.cos_coeffs)))
        self.sin_coeffs = np.pad(self.sin_coeffs, (0, k - len(self.sin_coeffs)))
        if not (math.isfinite(self.const) and np.all(np.isfinite(self.cos_coeffs))
                and np.all(np.isfinite(self.sin_coeffs))):
            raise ValueError("potential coefficients must be finite")

    @property
    def degree(self):
        return len(self.cos_coeffs)

    @classmethod
    def from_row(cls, row):
        row = np.asarray(row, dtype=float)
        if row.ndim != 1 or len(row) % 2 != 1:
            raise ValueError("potential row must be [c0, a1, b1, ..., aK, bK]")
        return cls(row[0], row[1::2], row[2::2])

    def to_row(self):
        row = np.empty(1 + 2 * self.degree)
        row[0] = self.const
        row[1::2] = self.cos_coeffs
        row[2::2] = self.sin_coeffs
        return row.tolist()

    def eval_many(self, ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.full(len(ts), self.const)
        k = self.degree
        if k:
            phases = 2.0 * np.pi * np.outer(ts, np.arange(1, k + 1))
            out += np.cos(phases) @ self.cos_coeffs
            out += np.sin(phases) @ self.sin_coeffs
        return out

    def eval(self, t):
        return float(self.eval_many(np.array([t]))[0])

    def __neg__(self):
        return ScalarPotential(-self.const, -self.cos_coeffs, -self.sin_coeffs)

    def __add__(self, other):
        if not isinstance(other, ScalarPotential):
            return NotImplemented
        k = max(self.degree, other.degree)
        pad = lambda a: np.pad(a, (0, k - len(a)))
        return ScalarPotential(
            self.const + other.const,
            pad(self.cos_coeffs) + pad(other.cos_coeffs),
            pad(self.sin_coeffs) + pad(other.sin_coeffs),
        )

    def __mul__(self, scalar):
        s = float(scalar)
        return ScalarPotential(s * self.const, s * self.cos_coeffs, s * self.sin_coeffs)

    __rmul__ = __mul__


def shift_potential(potential, offset):
    """Add a constant to a scalar potential."""
    return ScalarPotential(
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


def perturbed_map(mat_map, const, cos_coeffs=None, sin_coeffs=None, scale=1.0):
    """The map t -> A(t) + scale * B(t) for a raw coefficient direction B.

    The direction enters as plain coefficient arrays rather than a map of
    its own: a direction may be singular everywhere, only the sum has to
    pass the invertibility certificate.
    """
    dc, dcos, dsin = _coeff_arrays(const, cos_coeffs, sin_coeffs, d=mat_map.dim)
    k = max(mat_map.degree, dcos.shape[0])
    s = float(scale)
    return TrigMatrixMap(
        mat_map.const + s * dc,
        _pad_modes(mat_map.cos_coeffs, k) + s * _pad_modes(dcos, k),
        _pad_modes(mat_map.sin_coeffs, k) + s * _pad_modes(dsin, k),
        group_tag=GENERAL,
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

    Symbol s pairs the map ``maps[s]`` with the rotation angle ``angles[s]``;
    weights are positive and sum to 1 (tolerance 1e-12).
    """

    def __init__(self, angles, maps, weights=None):
        self.maps = list(maps)
        if not self.maps:
            raise ValueError("need at least one map")
        dims = {m.dim for m in self.maps}
        if len(dims) != 1:
            raise ValueError("all maps must share one dimension")
        self.angles = wrap_unit(np.atleast_1d(np.asarray(angles, dtype=float)))
        if len(self.angles) != len(self.maps):
            raise ValueError("need one rotation angle per map")
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


def inverse_word_product(product, word, t):
    """Backward cocycle product along the backward orbit of ``t``.

    ``word`` lists backward symbols most recent first: word[j] acted on the
    circle point u_{j+1} = t - angles[word[0]] - ... - angles[word[j]], and
    the returned matrix is A(u_m)^-1 ... A(u_1)^-1.  Feeding the reversed
    forward word and the forward orbit endpoint inverts `word_product`.
    """
    w = as_word(word, product.n_symbols)
    orbit = backward_orbit(product.angles, w, t)
    out = np.eye(product.dim)
    for s, u in zip(w, orbit[1:]):
        out = np.linalg.inv(product.maps[s].eval(u)) @ out
    return out
