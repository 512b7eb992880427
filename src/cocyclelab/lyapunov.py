"""Lyapunov spectrum estimators for random quasi-periodic products.

Two Monte Carlo estimators and one exact route:

* :func:`estimate_spectrum` iterates an orthonormal frame through the
  cocycle and reads the full spectrum off the diagonal of periodic QR
  factorizations (one replicate per independent substream).
* :func:`estimate_top_exponent` pushes a single vector, renormalized by
  its norm, and reads the top exponent off its growth (any d).
* :func:`diagonal_spectrum` evaluates the exponents of diagonal tuples in
  closed form as weighted circle averages of log |diagonal entries| by
  Jensen's formula (``_circle_roots.circle_log_mean``), as the sum-rule
  oracle :func:`mean_log_abs_det` does.

Both estimators share one kernel that advances every replicate in
lockstep.  The words are drawn up front, one byte per step.  Everything
else is made ``CHUNK_BLOCKS * START_PERIOD`` steps at a time.  A step's
point enters only through its phasor e^{2 pi i t}: each chunk takes one
base phasor per replicate from a longdouble carry (the sum of the earlier
angles, mod 1) and multiplies it by per-symbol tables U_s[k] = e^{2 pi i
frac(k theta_s)}, indexed by the counts of each symbol since the chunk
began; the harmonics of degree m are complex powers.  So no cosine or
sine is taken per step.  Against the exact rational orbit of the float
angles, the phasors of two replicates of ``random_tuple(3, 1)`` stayed
within 1.9e-15 over 1e5 steps; the longdouble cumulative sum of the
angles that ``circle.base_orbit`` takes drifted 9.4e-12 on the same words.
The step matrices are evaluated from those harmonics into one buffer that
every chunk reuses and multiplied into blocks.  So memory grows with
n_iter by the words' one byte per step and replicate only, and each block
runs one renormalization step on the whole ``(n_rep, d, d)`` stack.
Within a block the step matrices are multiplied pairwise in stacked passes;
the block product agrees with sequential multiplication up to roundoff.
The block loop holds only the sequential step: the matmul, then the raw
Householder QR and the Q formed from it (or the norm and divide).  |diag R|
is read once per chunk off the stacked raw factors, and the overflow and
rank checks, the logs and the running sum are taken once per chunk too,
with the bits of adding one block at a time.  The last QR exponent is
pinned to the step determinants, evaluated by the cofactor kernel that
TWIST_D shares (``_cofactor``).  Every replicate value is bitwise the same
as iterating that replicate on its own at the same periods.

The renormalization period is not a knob: blocks start ``START_PERIOD``
steps long, and the checks that read |diag R| (or the norms) decide it.
When a block image is not finite or falls below the normal float range,
or, on the full frame at d >= 3, a block spreads log |R_11| -
log |R_{d-1,d-1}| past ``SPREAD_BUDGET`` (-log(eps) / 2, about 18), the
chunk is redone from the frame and log sum it started with at half the
period (20, 10, 5, 2, 1).  After a chunk whose spread stays within half
the budget and whose largest |log| of a |R_ii| or norm stays within an
eighth of log(float max), the next chunk runs at twice the period, up to
a quarter chunk (``MIN_BLOCKS`` blocks) and never back up to a period
that had to be halved, so the period cannot oscillate.  Each map whose
scale (the d-th root of its Hadamard bound) lies outside 2^+-64 is
iterated scaled by a power of two to near 1, exactly, and each
replicate's exponents get the log 2 per step of those scalings back.  So
a map's scale moves only the exponents, and the lower exponents of a
widely spread spectrum stay accurate.  At one step per block only a
non-finite or vanishing image raises ``RenormalizationError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# The LAPACK gufunc (dorgqr) that np.linalg.qr's reduced mode runs to form Q
# from the raw Householder factor; private numpy API, present since 1.22.
from numpy.linalg._umath_linalg import qr_reduced as _qr_reduced

from ._circle_roots import circle_log_mean, sample_points
from ._cofactor import _minors
from .circle import _wrap_extended
from .cocycle import DIAGONAL, RandomProduct
from .errors import GroupTagError, RenormalizationError

# steps per renormalization block until the kernel halves or doubles it
START_PERIOD = 20
# renormalization blocks per chunk at START_PERIOD; bounds the step-matrix
# stack at n_rep * CHUNK_BLOCKS * START_PERIOD matrices whatever n_iter is
CHUNK_BLOCKS = 64
# fewest renormalization blocks per chunk, which caps the doubled period
MIN_BLOCKS = 4
# largest log |R_11| - log |R_{d-1,d-1}| of a block: past -log(eps) the
# lower columns of the block image are rounding noise, and this keeps half
# the digits (Geist, Parlitz and Lauterborn, Prog. Theor. Phys. 1990)
SPREAD_BUDGET = -0.5 * np.log(np.finfo(float).eps)
# largest |log| of a block's |R_ii| or norm after which the period may
# double: an eighth of the float range's, so twice it leaves room to spare
# even for a squared norm
_LOG_ROOM = np.log(np.finfo(float).max) / 8.0
# a map whose scale lies within 2^+-_SCALE_SLACK is iterated unscaled
_SCALE_SLACK = 64
# smallest normal float: a |R_ii| or squared norm below it has lost digits
_TINY = np.finfo(float).tiny
# steps per rng.choice call when a word is drawn
_WORD_BLOCK = 1 << 16


@dataclass
class LyapunovEstimate:
    """Monte Carlo Lyapunov estimates aggregated over replicates.

    ``values`` holds the replicate means sorted non-increasing, ``stderr``
    the standard error across replicates per index (zero when n_rep = 1),
    and ``replicates`` the per-replicate estimates, column j holding those
    of the frame column whose mean is ``values[j]``.  ``half_run`` is the
    replicate mean of the same estimates taken at the chunk boundary
    nearest n_iter / 2: a growth that is only polynomial, whose finite-time
    estimate is about log(n) / n, reads about twice as large there.
    """

    values: np.ndarray
    stderr: np.ndarray
    replicates: np.ndarray = field(repr=False, default=None)
    half_run: np.ndarray = field(repr=False, default=None)

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
    to ``_chunk_phasors``.
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


def _orbit_tables(angles, n):
    """Phasors U_s[k] = e^{2 pi i frac(k theta_s)}, k = 0..n, one row per symbol.

    ``angles`` are the longdouble theta_s.  Each k theta_s is exact while
    k < 2^11 (the 53 significant bits of theta_s and the bits of k fit in
    its 64), and so is its fractional part; the phasor is then taken of
    that part as a float.
    """
    turns = np.multiply.outer(angles, np.arange(n + 1))
    np.modf(turns, out=(turns, np.empty_like(turns)))
    return np.exp(2j * np.pi * turns.astype(float))


def _chunk_phasors(tables, angles, words, firsts, carry):
    """Phasors e^{2 pi i t} of a chunk's step points, shape (n_rep, n) like ``words``.

    ``carry`` holds each replicate's longdouble sum, mod 1, of the angles
    of every earlier step.  The chunk starts at t_c = carry + first, wrapped by
    ``_wrap_extended``; step j sits at t_c + sum_s k_s theta_s, with k_s
    the count of symbol s among the chunk's steps before j, so its phasor
    is e^{2 pi i t_c} times the ``tables`` entries U_s[k_s].  ``angles``
    are the longdouble theta_s; the carry advances by count times angle
    per symbol, in place.
    """
    n_rep, n = words.shape
    base = np.exp(2j * np.pi * _wrap_extended(carry + firsts))
    out = np.repeat(base[:, None], n, axis=1)
    counts = np.zeros((n_rep, n), dtype=np.intp)
    for s, table in enumerate(tables):
        hits = words == s
        np.cumsum(hits[:, :-1], axis=1, out=counts[:, 1:])
        out *= table[counts]
        carry += (counts[:, -1] + hits[:, -1]) * angles[s]
    # kept in [0, 1), the carry rounds at 2^-64 whatever the run length
    np.modf(carry, out=(carry, np.empty_like(carry)))
    return out


def _harmonics(phasors, k):
    """(n, k) cos(2 pi m t) and sin(2 pi m t), m = 1..k, from phasors e^{2 pi i t}.

    Column m is the real or imaginary part of the m-th power, a running
    complex product of the phasors; both come back as transposes of
    contiguous (k, n) arrays, which BLAS takes as they are.
    """
    cos, sin = np.empty((2, k, len(phasors)))
    power = phasors
    for m in range(k):
        if m:
            power = power * phasors
        cos[m], sin[m] = power.real, power.imag
    return cos.T, sin.T


def _step_matrices(product, words, phasors, period, workspace=None):
    """Step matrices of a chunk, padded with identities to whole blocks.

    ``words`` and ``phasors`` have shape (n_rep, n); ``phasors`` holds each
    step's phasor e^{2 pi i t}.  The result has shape (n_rep, ceil(n /
    period) * period, d, d).  Each symbol's phasors are gathered in
    row-major order, evaluated in one batch through the harmonics of their
    powers and placed by flat integer index.  The result is the head of
    ``workspace``, a flat float buffer of twice its size, and the symbols
    are evaluated into the tail.
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
    for s, mat_map in enumerate(product.maps):
        idx = np.flatnonzero(words == s)
        if idx.size:
            at = phasors.take(idx)
            if n_pad != n:
                # row r of the (n_rep, n) chunk starts at r * n_pad in ``flat``
                idx += idx // n * (n_pad - n)
            values = workspace[size:size + idx.size * d * d].reshape(idx.size, d, d)
            flat[idx] = mat_map._eval_harmonics(*_harmonics(at, mat_map.degree), values)
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
            # an odd last matrix is carried to the next level
            stack = pairs if n % 2 == 0 else np.concatenate(
                [pairs, stack[:, :, n - 1:]], axis=2)
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


def _scale_exponent(mat_map):
    """The k with 2^k nearest a map's scale, or 0 while its scale lies within 2^+-64.

    The scale is the d-th root of the map's Hadamard bound prod_i max_t
    |row_i(t)|, each row bounded by the sum of its coefficients' magnitudes
    (no square, so no over- or underflow at any scale).
    """
    coeffs = np.concatenate([mat_map.const[None], mat_map.cos_coeffs, mat_map.sin_coeffs])
    k = round(float(np.mean(np.log2(np.abs(coeffs).sum(axis=(0, 2))))))
    return k if abs(k) > _SCALE_SLACK else 0


def _prescaled(product):
    """The product with map s scaled by 2^-k_s (exact), and the k_s.

    Maps whose scale lies within 2^+-64 keep k_s = 0 and are iterated as
    they are; the product itself is returned when every k_s is 0.
    """
    exponents = [_scale_exponent(m) for m in product.maps]
    if any(exponents):
        product = RandomProduct(product.angles, [2.0 ** -k * m for k, m in
                                                 zip(exponents, product.maps)], product.weights)
    return product, exponents


def _scale_logs(words, exponents, n):
    """log 2 * sum_s k_s N_s per replicate, N_s the count of symbol s in the first n steps."""
    return np.log(2.0) * sum(k * np.count_nonzero(words[:, :n] == s, axis=1)
                             for s, k in enumerate(exponents) if k)


def _iterate_frames(product, seed, n_iter, n_rep, full_frame):
    """Per-replicate exponent estimates from lockstep frame iteration.

    With ``full_frame`` an orthonormal d-frame is pushed through the blocks
    and renormalized by QR, giving the spectrum per replicate in
    frame-column order, shape (n_rep, d).  Otherwise one random unit vector
    per replicate is pushed and renormalized by its norm, giving the top
    exponent, shape (n_rep,).
    Returns the estimates after ``n_iter`` steps and those after the chunk
    boundary nearest ``n_iter / 2`` (the first of two equally near).
    """
    if n_iter < 1 or n_rep < 1:
        raise ValueError("n_iter and n_rep must be >= 1")
    d = product.dim
    words, firsts, vectors = _draw_replicates(product, seed, n_iter, n_rep,
                                              with_vector=not full_frame)
    scaled, exponents = _prescaled(product)
    carry = np.zeros(n_rep, dtype=np.longdouble)
    if full_frame:
        frame = np.repeat(np.eye(d)[None], n_rep, axis=0)
        log_sum = np.zeros((n_rep, d))
    else:
        frame = vectors[:, :, None]
        log_sum = np.zeros(n_rep)
    period = START_PERIOD
    chunk = CHUNK_BLOCKS * START_PERIOD
    # the period doubles up to the ceiling: a chunk over MIN_BLOCKS, then
    # the period that any halving left
    ceiling = chunk // MIN_BLOCKS
    half_step = min([*range(chunk, n_iter, chunk), n_iter],
                    key=lambda end: abs(2 * end - n_iter))
    angles = product.angles.astype(np.longdouble)
    tables = _orbit_tables(angles, min(chunk, n_iter))
    # Every chunk reuses one buffer for its step matrices and evaluations,
    # the two largest arrays of the walk.  Allocated per chunk, they let the
    # heap be trimmed and faulted back in at every chunk.  The halvings of
    # START_PERIOD (10, 5, 2, 1) and its doublings up to the ceiling divide
    # the chunk, so a redone chunk pads to no more steps and no block is all
    # padding.
    workspace = np.empty(2 * n_rep * min(chunk, -(-n_iter // period) * period) * d * d)
    for lo in range(0, n_iter, chunk):
        chunk_words = words[:, lo:lo + chunk]
        phasors = _chunk_phasors(tables, angles, chunk_words, firsts, carry)
        while True:
            mats = _step_matrices(scaled, chunk_words, phasors, period, workspace)
            blocks = _block_products(mats, period)
            walk = frame
            spread = 0.0
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
                    if ok and d > 2:
                        spread = np.max(logs[:, :, 0] - logs[:, :, -2])
                        ok = spread <= SPREAD_BUDGET or period == 1
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
            ceiling = period
        frame = walk
        # a chunk well inside both budgets doubles the period of the next
        if (2 * period <= ceiling and spread <= 0.5 * SPREAD_BUDGET
                and np.max(np.abs(logs)) <= _LOG_ROOM):
            period *= 2
        if full_frame:
            logs[:, :, -1] = dets - np.sum(logs[:, :, :-1], axis=2)
        # accumulate is sequential along the block axis: the bits of adding
        # one block at a time
        logs[:, 0] += log_sum
        log_sum = np.add.accumulate(logs, axis=1)[:, -1]
        if min(lo + chunk, n_iter) == half_step:
            half_sum = log_sum
    if any(exponents):
        # each step of symbol s was scaled by 2^-k_s, every |R_ii| or norm with it
        shifts = [_scale_logs(words, exponents, n) for n in (n_iter, half_step)]
        if full_frame:
            shifts = [shift[:, None] for shift in shifts]
        log_sum, half_sum = log_sum + shifts[0], half_sum + shifts[1]
    return log_sum / n_iter, half_sum / half_step


def _aggregate(reps, half_reps):
    """Mean and ddof=1 standard error (zero for one replicate) of (n_rep, k) values.

    The columns are averaged as they come and then sorted by their means,
    non-increasing; the standard errors, replicates and half-run means
    follow.  Sorting each replicate first would push two exponents closer
    than one replicate's fluctuation apart.
    """
    order = np.argsort(-reps.mean(axis=0), kind="stable")
    # numpy would sum an F-ordered copy pairwise, with other bits
    reps = np.ascontiguousarray(reps[:, order])
    half_reps = np.ascontiguousarray(half_reps[:, order])
    n_rep = reps.shape[0]
    if n_rep > 1:
        stderr = reps.std(axis=0, ddof=1) / np.sqrt(n_rep)
    else:
        stderr = np.zeros(reps.shape[1])
    return LyapunovEstimate(values=reps.mean(axis=0), stderr=stderr, replicates=reps,
                            half_run=half_reps.mean(axis=0))


def estimate_spectrum(product, n_iter, n_rep, seed):
    """Estimate the full Lyapunov spectrum by frame iteration with QR steps.

    Each replicate draws an independent substream (start point and word),
    pushes an orthonormal frame through ``n_iter`` steps, re-orthonormalizes
    it after every block of steps, and averages log |R_ii|.  The step
    matrices are evaluated at orbit phasors (see the module docstring),
    which stay within a few 1e-15 of the exact orbit.  Blocks start
    ``START_PERIOD`` (20) steps long.  The period halves, down to one step,
    where a block image overflows, falls below the normal float range, or
    (d >= 3) spreads log |R_11| - log |R_{d-1,d-1}| past ``SPREAD_BUDGET``
    (about 18), beyond which the lower columns are rounding noise.  It
    doubles, up to a quarter chunk and below any period that had to be
    halved, after a chunk well inside both budgets.  Maps of scale outside
    2^+-64 are iterated scaled by a power of two and their exponents
    shifted back.  At one step per block only a non-finite or vanishing
    image raises ``RenormalizationError``.  Each exponent is the replicate
    mean of one frame column, sorted after aggregation.  All replicates
    advance together.
    """
    return _aggregate(*_iterate_frames(product, seed, n_iter, n_rep, full_frame=True))


def estimate_top_exponent(product, n_iter, n_rep, seed):
    """Estimate the top Lyapunov exponent from the norm growth of one vector.

    Works for any dimension d.  Each replicate starts from an independent
    random unit d-vector, which avoids locking onto an invariant contracting
    direction of structured tuples, and renormalizes it by its norm after
    every block of steps, evaluated at orbit phasors as in
    :func:`estimate_spectrum`.  Blocks start ``START_PERIOD`` (20) steps
    long; they halve, down to one step, where a squared norm overflows or
    falls below the normal float range, and double as in
    :func:`estimate_spectrum`.  Maps of scale outside 2^+-64 are iterated
    scaled by a power of two to near 1, so only a single step that grows or
    shrinks a vector by more than about 1e154 against its map's scale
    raises ``RenormalizationError``.
    """
    reps, half_reps = _iterate_frames(product, seed, n_iter, n_rep, full_frame=False)
    return _aggregate(reps.reshape(n_rep, 1), half_reps.reshape(n_rep, 1))


def diagonal_spectrum(product):
    """Exact spectrum of a diagonal tuple, sorted non-increasing.

    The exponents of a diagonal tuple are the weighted circle averages
    sum_s weight_s * integral of log |a_i^(s)|.  Each entry is a trig
    polynomial of its map's degree, and its integral is Jensen's formula on
    its Fourier modes (``_circle_roots.circle_log_mean``), so a constant
    map gives log |a_ii| exactly.  An entry with a real zero raises
    ``RenormalizationError``.
    """
    if any(m.group_tag != DIAGONAL for m in product.maps):
        raise GroupTagError("diagonal_spectrum requires all maps tagged DIAGONAL")
    exponents = np.zeros(product.dim)
    for weight, mat_map in zip(product.weights, product.maps):
        diag = np.diagonal(mat_map.eval_many(sample_points(mat_map.degree)), axis1=1, axis2=2)
        for i in range(product.dim):
            _, zeros, mean = circle_log_mean(diag[:, i], mat_map.degree)
            if zeros.size:
                raise RenormalizationError("diagonal entry vanishes on the circle")
            exponents[i] += weight * mean
    return np.sort(exponents)[::-1]


def mean_log_abs_det(product):
    """Weighted circle average of log |det| across the tuple (sum-rule oracle).

    det A_s is taken by LU, independent of the estimators' cofactor pin, and
    its integral by Jensen's formula; a real zero raises ``RenormalizationError``.
    """
    total = 0.0
    for weight, mat_map in zip(product.weights, product.maps):
        degree = mat_map.dim * mat_map.degree
        _, zeros, mean = circle_log_mean(
            np.linalg.det(mat_map.eval_many(sample_points(degree))), degree)
        if zeros.size:
            raise RenormalizationError("determinant vanishes on the circle")
        total += weight * mean
    return total
