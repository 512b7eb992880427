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
else is made ``CHUNK_BLOCKS`` renormalization blocks at a time: the start
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

DEFAULT_QR_PERIOD = 20
# renormalization blocks evaluated per pass; bounds the step-matrix stack at
# n_rep * CHUNK_BLOCKS * qr_period matrices whatever n_iter is
CHUNK_BLOCKS = 64
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
        raise RenormalizationError("singular step matrix in sampled word")
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


def _iterate_frames(product, seed, n_iter, n_rep, qr_period, full_frame):
    """Per-replicate exponent estimates from lockstep frame iteration.

    With ``full_frame`` an orthonormal d-frame is pushed through the blocks
    and renormalized by QR, giving the sorted spectrum per replicate, shape
    (n_rep, d).  Otherwise one random unit vector per replicate is pushed
    and renormalized by its norm, giving the top exponent, shape (n_rep,).
    """
    if n_iter < 1 or n_rep < 1 or qr_period < 1:
        raise ValueError("n_iter, n_rep and qr_period must be >= 1")
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
    chunk = CHUNK_BLOCKS * qr_period
    # Every chunk reuses one buffer for its step matrices and evaluations,
    # the two largest arrays of the walk.  Allocated per chunk, they let the
    # heap be trimmed and faulted back in at every chunk.
    workspace = np.empty(2 * n_rep * min(chunk, -(-n_iter // qr_period) * qr_period) * d * d)
    for lo in range(0, n_iter, chunk):
        chunk_words = words[:, lo:lo + chunk]
        starts = _chunk_starts(product.angles, chunk_words, firsts, carry)
        mats = _step_matrices(product, chunk_words, starts, qr_period, workspace)
        blocks = _block_products(mats, qr_period)
        if full_frame:
            # Orthogonality of the frame makes sum(log diag R) equal the
            # block's log |det| in exact arithmetic.  The leading diagonal
            # entries come out of the QR step stably, the last one absorbs
            # all the rounding of the multiplied-out block, so pin it to the
            # exact invariant instead.
            dets = _block_log_dets(mats, qr_period)
        n_blocks = blocks.shape[1]
        # The loop holds only the sequential step.  Overflow and vanishing
        # show up as non-finite or zero entries that the checks after it
        # report, so their warnings are noise.
        if full_frame:
            images = np.empty_like(blocks)
            factors = []
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for j in range(n_blocks):
                    np.matmul(blocks[:, j], frame, out=images[:, j])
                    frame, factor = _qr_step(images[:, j])
                    factors.append(factor)
            diags = np.abs(np.diagonal(np.stack(factors, axis=1), axis1=2, axis2=3))
            bad_image = ~np.all(np.isfinite(images), axis=(0, 2, 3))
            bad = bad_image | ~np.all(diags > 0.0, axis=(0, 2))
            if np.any(bad):
                if bad_image[np.argmax(bad)]:
                    raise RenormalizationError(
                        "non-finite frame image; reduce qr_period for this tuple"
                    )
                raise RenormalizationError(
                    "rank-deficient frame image; reduce qr_period for this tuple"
                )
            logs = np.log(diags)
            logs[:, :, -1] = dets - np.sum(logs[:, :, :-1], axis=2)
        else:
            norms = np.empty((n_rep, n_blocks))
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for j in range(n_blocks):
                    image = np.matmul(blocks[:, j], frame)
                    # a (1, d) @ (d, 1) product is the BLAS dot that
                    # np.linalg.norm takes on one vector, so each norm
                    # matches it bit for bit
                    np.sqrt(np.matmul(image.transpose(0, 2, 1), image)[:, 0, 0],
                            out=norms[:, j])
                    frame = image / norms[:, j, None, None]
            if not np.all(np.isfinite(norms) & (norms > 0.0)):
                raise RenormalizationError(
                    "vector iterate overflowed or vanished; reduce qr_period"
                )
            logs = np.log(norms)
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


def estimate_spectrum(product, n_iter, n_rep, seed, qr_period=DEFAULT_QR_PERIOD):
    """Estimate the full Lyapunov spectrum by frame iteration with QR steps.

    Each replicate draws an independent substream (start point and word),
    pushes an orthonormal frame through ``n_iter`` steps, re-orthonormalizes
    every ``qr_period`` steps, and averages log |R_ii|.  Replicate vectors
    are sorted before aggregation.  All replicates advance together.
    """
    reps = _iterate_frames(product, seed, n_iter, n_rep, qr_period, full_frame=True)
    return _aggregate(reps)


def estimate_top_exponent(product, n_iter, n_rep, seed, qr_period=DEFAULT_QR_PERIOD):
    """Estimate the top Lyapunov exponent from the norm growth of one vector.

    Works for any dimension d.  Each replicate starts from an independent
    random unit d-vector, which avoids locking onto an invariant contracting
    direction of structured tuples, and renormalizes it by its norm every
    ``qr_period`` steps.
    """
    reps = _iterate_frames(product, seed, n_iter, n_rep, qr_period, full_frame=False)
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
