"""Lyapunov spectrum estimators for random quasi-periodic products.

Two Monte Carlo estimators and one exact route:

* :func:`estimate_spectrum` iterates an orthonormal frame through the
  cocycle and reads the full spectrum off the diagonal of periodic QR
  factorizations (one replicate per independent substream).
* :func:`estimate_top_exponent` pushes a single vector, renormalized by
  its norm, and reads the top exponent off its growth (any d).
* :func:`diagonal_spectrum` evaluates the exponents of diagonal tuples in
  closed form as weighted circle averages of log |diagonal entries|, on
  the circle rule that the sum-rule oracle :func:`mean_log_abs_det` uses.

Both estimators share one kernel that advances every replicate in
lockstep.  The words are drawn up front, one byte per step.  Everything
else is made ``CHUNK_BLOCKS * START_PERIOD`` steps at a time: the start
points, from a longdouble running sum carried across chunks that has the
bits of one cumulative sum over the whole word, and the step matrices,
evaluated into one buffer that every chunk reuses and multiplied into
blocks.  So memory grows with n_iter by the words' one byte per step and
replicate only, and each block runs one renormalization step on the whole
``(n_rep, d, d)`` stack.
Within a block the step matrices are multiplied pairwise in stacked passes;
the block product agrees with sequential multiplication up to roundoff.
The block loop holds only the sequential step: the matmul, then the raw
Householder QR and the Q formed from it (or the norm and divide).  |diag R|
is read once per chunk off the stacked raw factors, and the overflow and
rank checks, the logs and the running sum are taken once per chunk too,
with the bits of adding one block at a time.  The last QR exponent is
pinned to the step determinants, evaluated by the cofactor kernel that
TWIST_D shares (``_cofactor``).  Every replicate value is bitwise the same
as iterating that replicate on its own.

The renormalization period is not a knob: blocks start ``START_PERIOD``
steps long, and the checks that read |diag R| (or the norms) decide it.
When a block image is not finite or falls below the normal float range,
or, on the full frame at d >= 3, a block spreads log |R_11| -
log |R_{d-1,d-1}| past ``SPREAD_BUDGET`` (-log(eps) / 2, about 18), the
chunk is redone from the frame and log sum it started with at half the
period (20, 10, 5, 2, 1), which then holds for the rest of the run.  So a
map's scale moves only the exponents, and the lower exponents of a widely
spread spectrum stay accurate.  At one step per block only a non-finite or
vanishing image raises ``RenormalizationError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# The LAPACK gufunc (dorgqr) that np.linalg.qr's reduced mode runs to form Q
# from the raw Householder factor; private numpy API, present since 1.22.
from numpy.linalg._umath_linalg import qr_reduced as _qr_reduced

from ._cofactor import _minors
from ._quadrature import circle_rule
from .circle import _wrap_extended
from .cocycle import DIAGONAL
from .errors import GroupTagError, RenormalizationError

# steps per renormalization block until the kernel halves it
START_PERIOD = 20
# renormalization blocks per chunk at START_PERIOD; bounds the step-matrix
# stack at n_rep * CHUNK_BLOCKS * START_PERIOD matrices whatever n_iter is
CHUNK_BLOCKS = 64
# largest log |R_11| - log |R_{d-1,d-1}| of a block: past -log(eps) the
# lower columns of the block image are rounding noise, and this keeps half
# the digits (Geist, Parlitz and Lauterborn, Prog. Theor. Phys. 1990)
SPREAD_BUDGET = -0.5 * np.log(np.finfo(float).eps)
# smallest normal float: a |R_ii| or squared norm below it has lost digits
_TINY = np.finfo(float).tiny
# steps per rng.choice call when a word is drawn
_WORD_BLOCK = 1 << 16


@dataclass
class LyapunovEstimate:
    """Monte Carlo Lyapunov estimates aggregated over replicates.

    ``values`` holds the replicate means sorted non-increasing, ``stderr``
    the standard error across replicates per index (zero when n_rep = 1),
    and ``replicates`` the per-replicate sorted estimates.
    """

    values: np.ndarray
    stderr: np.ndarray
    replicates: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        self.stderr = np.atleast_1d(np.asarray(self.stderr, dtype=float))
        if self.values.shape != self.stderr.shape:
            raise ValueError("values and stderr must have matching shape")
        if np.any(np.diff(self.values) > 0.0):
            raise ValueError("values must be sorted non-increasing")
        if np.any(self.stderr < 0.0) or not np.all(np.isfinite(self.stderr)):
            raise ValueError("standard errors must be finite and >= 0")

    @property
    def top(self):
        return float(self.values[0])


def _substreams(seed, n_rep):
    root = np.random.SeedSequence(int(seed))
    return [np.random.Generator(np.random.Philox(child)) for child in root.spawn(n_rep)]


def _draw_replicates(product, seed, n_iter, n_rep, with_vector):
    """Words, first points and (optionally) unit start vectors per replicate.

    Each substream draws its word, then its start point, then its start
    vector, so replicate r sees the same numbers whatever n_rep is.  The
    word is drawn in blocks of ``_WORD_BLOCK`` steps, which consume the
    stream as one draw of the whole word does, so ``choice``'s temporaries
    stay bounded whatever n_iter is.  The points after the first are left
    to ``_chunk_starts``.
    """
    words = np.empty((n_rep, n_iter), dtype=np.min_scalar_type(product.n_symbols - 1))
    firsts = np.empty(n_rep)
    vectors = np.empty((n_rep, product.dim)) if with_vector else None
    for r, rng in enumerate(_substreams(seed, n_rep)):
        for lo in range(0, n_iter, _WORD_BLOCK):
            words[r, lo:lo + _WORD_BLOCK] = rng.choice(
                product.n_symbols, size=min(_WORD_BLOCK, n_iter - lo), p=product.weights)
        firsts[r] = rng.random()
        if with_vector:
            vec = rng.standard_normal(product.dim)
            vectors[r] = vec / np.linalg.norm(vec)
    return words, firsts, vectors


def _chunk_starts(angles, words, firsts, carry):
    """Start points of a chunk of steps, shape (n_rep, n) like ``words``.

    ``carry`` holds each replicate's longdouble sum of the angles of every
    earlier step, and is advanced past the chunk in place.  The sums run on
    sequentially from it, so the points have the bits of one cumulative sum
    over the whole word wrapped by ``_wrapped_cumulative``; the first point
    of a replicate is ``firsts`` itself.
    """
    n_rep, n = words.shape
    acc = np.empty((n_rep, n), dtype=np.longdouble)
    acc[:, 0] = carry
    acc[:, 1:] = angles[words[:, :-1]]
    np.cumsum(acc, axis=1, out=acc)
    carry[:] = acc[:, -1] + angles[words[:, -1]]
    # contiguous longdouble operands take no casting buffers
    acc += firsts.astype(np.longdouble)[:, None]
    return _wrap_extended(acc)


def _step_matrices(product, words, starts, period, workspace=None):
    """Step matrices of a chunk, padded with identities to whole blocks.

    ``words`` and ``starts`` have shape (n_rep, n); the result has shape
    (n_rep, ceil(n / period) * period, d, d).  Each symbol's points are
    gathered in row-major order, evaluated in one batch and placed by flat
    integer index.  The result is the head of ``workspace``, a flat float
    buffer of twice its size, and the symbols are evaluated into the tail.
    """
    n_rep, n = words.shape
    d = product.dim
    n_pad = -(-n // period) * period
    size = n_rep * n_pad * d * d
    if workspace is None:
        workspace = np.empty(2 * size)
    mats = workspace[:size].reshape(n_rep, n_pad, d, d)
    mats[:, n:] = np.eye(d)
    flat = mats.reshape(n_rep * n_pad, d, d)
    for s in range(product.n_symbols):
        idx = np.flatnonzero(words == s)
        if idx.size:
            points = starts.take(idx)
            if n_pad != n:
                # row r of the (n_rep, n) chunk starts at r * n_pad in ``flat``
                idx += idx // n * (n_pad - n)
            values = workspace[size:size + idx.size * d * d].reshape(idx.size, d, d)
            flat[idx] = product.maps[s].eval_many(points, out=values)
    return mats


def _block_products(mats, period):
    """Ordered products of consecutive ``period``-size groups of matrices.

    ``mats`` has shape (n_rep, n_blocks * period, d, d).  Index order is
    time order: the product of group g is mats[:, g*period + period - 1] @
    ... @ mats[:, g*period].
    """
    n_rep, n, d, _ = mats.shape
    stack = mats.reshape(n_rep, n // period, period, d, d)
    # Overflow inside a block shows up as non-finite entries downstream and is
    # reported as RenormalizationError there; the warning itself is noise.
    with np.errstate(over="ignore", invalid="ignore"):
        while stack.shape[2] > 1:
            n = stack.shape[2]
            pairs = np.matmul(stack[:, :, 1::2], stack[:, :, 0:n - 1:2])
            stack = np.concatenate([pairs, stack[:, :, n - n % 2:]], axis=2)
    return stack[:, :, 0]


def _block_log_dets(mats, period):
    """Per-block sums of the step matrices' log |det|, shape (n_rep, n_blocks).

    Computed step by step, so the value is immune to the cancellation that
    corrupts the determinant of an explicitly multiplied block.  Each det is
    the full d x d minor of the shared cofactor kernel (``_cofactor``), about
    d 2^d array operations over the whole stack.  The kernel reads a
    transposed view of the stack: elementwise products have the same bits
    on any strides, so the contiguous copy of its entry layout is not made.
    A det that is zero or not finite (including one that overflows) is
    reported before any log is taken.  Identity padding has det exactly 1
    and contributes exactly zero.
    """
    n_rep, n, d, _ = mats.shape
    with np.errstate(over="ignore", invalid="ignore"):
        dets = _minors(mats.reshape(-1, d, d).transpose(1, 2, 0), range(d), range(d))
    if not np.all(np.isfinite(dets) & (dets != 0.0)):
        raise RenormalizationError("zero or non-finite step determinant in sampled word")
    logdets = np.log(np.abs(dets))
    return logdets.reshape(n_rep, n // period, period).sum(axis=-1)


def _qr_step(image):
    """Q of an (n_rep, d, d) stack, and a factor whose diagonal is R's.

    ``np.linalg.qr(image, mode="raw")`` stays the one public QR call per
    block.  Q comes from ``_qr_reduced`` on that raw factor: the gufunc and
    inputs of the reduced mode, so the same bits, without building R by
    ``triu``.

    The gufunc runs under the caller's errstate, not the wrapper's
    ``invalid="call"`` hook that turns its flag into ``LinAlgError``: it
    raises that flag only when LAPACK rejects an argument, and the square
    core shape fixes every argument, so no value of ``image`` can raise it.
    """
    raw, tau = np.linalg.qr(image, mode="raw")
    return _qr_reduced(raw.swapaxes(-1, -2), tau), raw


def _iterate_frames(product, seed, n_iter, n_rep, full_frame):
    """Per-replicate exponent estimates from lockstep frame iteration.

    With ``full_frame`` an orthonormal d-frame is pushed through the blocks
    and renormalized by QR, giving the sorted spectrum per replicate, shape
    (n_rep, d).  Otherwise one random unit vector per replicate is pushed
    and renormalized by its norm, giving the top exponent, shape (n_rep,).
    """
    if n_iter < 1 or n_rep < 1:
        raise ValueError("n_iter and n_rep must be >= 1")
    d = product.dim
    words, firsts, vectors = _draw_replicates(product, seed, n_iter, n_rep,
                                              with_vector=not full_frame)
    carry = np.zeros(n_rep, dtype=np.longdouble)
    if full_frame:
        frame = np.repeat(np.eye(d)[None], n_rep, axis=0)
        log_sum = np.zeros((n_rep, d))
    else:
        frame = vectors[:, :, None]
        log_sum = np.zeros(n_rep)
    period = START_PERIOD
    chunk = CHUNK_BLOCKS * START_PERIOD
    # Every chunk reuses one buffer for its step matrices and evaluations,
    # the two largest arrays of the walk.  Allocated per chunk, they let the
    # heap be trimmed and faulted back in at every chunk.  The halvings of
    # START_PERIOD (10, 5, 2, 1) divide it, so a redone chunk pads to no more
    # steps and no block is all padding.
    workspace = np.empty(2 * n_rep * min(chunk, -(-n_iter // period) * period) * d * d)
    for lo in range(0, n_iter, chunk):
        chunk_words = words[:, lo:lo + chunk]
        starts = _chunk_starts(product.angles, chunk_words, firsts, carry)
        while True:
            mats = _step_matrices(product, chunk_words, starts, period, workspace)
            blocks = _block_products(mats, period)
            walk = frame
            # The loop holds only the sequential step.  Overflow and
            # vanishing show up as non-finite or subnormal values that the
            # checks after it read, so their warnings are noise.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                if full_frame:
                    # Orthogonality of the frame makes sum(log diag R) equal
                    # the block's log |det| in exact arithmetic.  The leading
                    # diagonal entries come out of the QR step stably, the
                    # last one absorbs all the rounding of the multiplied-out
                    # block, so pin it to the exact invariant instead.
                    dets = _block_log_dets(mats, period)
                    images = np.empty_like(blocks)
                    factors = []
                    for j in range(blocks.shape[1]):
                        np.matmul(blocks[:, j], walk, out=images[:, j])
                        walk, factor = _qr_step(images[:, j])
                        factors.append(factor)
                    diags = np.abs(np.diagonal(np.stack(factors, axis=1), axis1=2, axis2=3))
                    logs = np.log(diags)
                    ok = np.all(np.isfinite(images)) and np.all(diags >= _TINY)
                    if ok and d > 2 and period > 1:
                        ok = np.max(logs[:, :, 0] - logs[:, :, -2]) <= SPREAD_BUDGET
                else:
                    norms = np.empty(blocks.shape[:2])
                    for j in range(blocks.shape[1]):
                        image = np.matmul(blocks[:, j], walk)
                        # a (1, d) @ (d, 1) product is the BLAS dot that
                        # np.linalg.norm takes on one vector, so each norm
                        # matches it bit for bit
                        np.sqrt(np.matmul(image.transpose(0, 2, 1), image)[:, 0, 0],
                                out=norms[:, j])
                        walk = image / norms[:, j, None, None]
                    logs = np.log(norms)
                    ok = np.all(np.isfinite(norms) & (norms * norms >= _TINY))
            if ok:
                break
            if period == 1:
                raise RenormalizationError("iterate overflows or vanishes within one step")
            period //= 2
        frame = walk
        if full_frame:
            logs[:, :, -1] = dets - np.sum(logs[:, :, :-1], axis=2)
        # accumulate is sequential along the block axis: the bits of adding
        # one block at a time
        logs[:, 0] += log_sum
        log_sum = np.add.accumulate(logs, axis=1)[:, -1]
    if not full_frame:
        return log_sum / n_iter
    return np.sort(log_sum / n_iter, axis=1)[:, ::-1]


def _aggregate(reps):
    """Mean and ddof=1 standard error (zero for one replicate) of (n_rep, k) values."""
    n_rep = reps.shape[0]
    if n_rep > 1:
        stderr = reps.std(axis=0, ddof=1) / np.sqrt(n_rep)
    else:
        stderr = np.zeros(reps.shape[1])
    return LyapunovEstimate(values=reps.mean(axis=0), stderr=stderr, replicates=reps)


def estimate_spectrum(product, n_iter, n_rep, seed):
    """Estimate the full Lyapunov spectrum by frame iteration with QR steps.

    Each replicate draws an independent substream (start point and word),
    pushes an orthonormal frame through ``n_iter`` steps, re-orthonormalizes
    it after every block of steps, and averages log |R_ii|.  Blocks start
    ``START_PERIOD`` (20) steps long.  The period halves, down to one step,
    where a block image overflows, falls below the normal float range, or
    (d >= 3) spreads log |R_11| - log |R_{d-1,d-1}| past ``SPREAD_BUDGET``
    (about 18), beyond which the lower columns are rounding noise.  At one
    step per block only a non-finite or vanishing image raises
    ``RenormalizationError``.  Replicate vectors are sorted before
    aggregation.  All replicates advance together.
    """
    reps = _iterate_frames(product, seed, n_iter, n_rep, full_frame=True)
    return _aggregate(reps)


def estimate_top_exponent(product, n_iter, n_rep, seed):
    """Estimate the top Lyapunov exponent from the norm growth of one vector.

    Works for any dimension d.  Each replicate starts from an independent
    random unit d-vector, which avoids locking onto an invariant contracting
    direction of structured tuples, and renormalizes it by its norm after
    every block of steps.  Blocks start ``START_PERIOD`` (20) steps long and
    halve, down to one step, where a squared norm overflows or falls below
    the normal float range; at one step per block that raises
    ``RenormalizationError``, so one step may grow or shrink a vector by at
    most about 1e154.
    """
    reps = _iterate_frames(product, seed, n_iter, n_rep, full_frame=False)
    return _aggregate(reps.reshape(n_rep, 1))


def diagonal_spectrum(product):
    """Exact spectrum of a diagonal tuple, sorted non-increasing.

    The exponents of a diagonal tuple are the weighted circle averages
    sum_s weight_s * integral of log |a_i^(s)|; the integral is evaluated
    with the Gauss-Legendre circle rule (64 panels of 64 nodes).
    """
    if any(m.group_tag != DIAGONAL for m in product.maps):
        raise GroupTagError("diagonal_spectrum requires all maps tagged DIAGONAL")
    xs, ws = circle_rule()
    exponents = np.zeros(product.dim)
    for weight, mat_map in zip(product.weights, product.maps):
        diag = np.diagonal(mat_map.eval_many(xs), axis1=1, axis2=2)
        logs = np.log(np.abs(diag))
        if not np.all(np.isfinite(logs)):
            raise RenormalizationError("diagonal entry vanishes on the quadrature grid")
        exponents += weight * (ws @ logs)
    return np.sort(exponents)[::-1]


def mean_log_abs_det(product):
    """Weighted circle average of log |det| across the tuple (sum-rule oracle)."""
    xs, ws = circle_rule()
    total = 0.0
    for weight, mat_map in zip(product.weights, product.maps):
        dets = np.linalg.det(mat_map.eval_many(xs))
        total += weight * float(ws @ np.log(np.abs(dets)))
    return total
