"""Certifiers for the genericity conditions of random quasi-periodic tuples.

Four certificate kinds:

``WEAK_PINCH``
    Monte Carlo positivity of the top exponent of the first map.
``WEAK_TWIST``
    Sampled projective separation between holonomy images of the Oseledets
    directions and the directions at the holonomy-shifted point (d = 2).
``PINCH_D``
    Distinctness of all equal-cardinality subset sums of an exponent list.
``TWIST_D``
    Finiteness of the circle integrals of log |minor| for every minor of
    the closed-form homoclinic holonomy.

Verdicts are PASS / FAIL / INCONCLUSIVE; a PASS always comes with a
nonnegative margin, a FAIL always carries a concrete witness in the
diagnostics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from ._cofactor import _entries, _max_row_norms, _minors
from .circle import (CIRCLE_GRID_N, circle_grid, circle_mean,
                     homoclinic_base_holonomy, rotate, wrap_unit)
from .holonomy import (PULLBACK_DEPTH, SHORT_PULLBACK_DEPTH,
                       closed_form_holonomy_many, oseledets_directions,
                       projective_distance)
from .lyapunov import estimate_top_exponent

CERTIFICATE_KINDS = ("WEAK_PINCH", "WEAK_TWIST", "PINCH_D", "TWIST_D")
VERDICTS = ("PASS", "FAIL", "INCONCLUSIVE")

# Measured exponents below this are treated as numerical zero: float noise
# in exactly-isometric products otherwise shows up as a tiny positive
# estimate with zero spread across replicates.
PINCH_NOISE_FLOOR = 1e-10
# Largest WEAK_PINCH estimate at the half run over the final one.  The
# finite-time estimate of a polynomial growth, exponent 0, is about
# log(n) / n, so it reads about 1.6-1.9 here; a positive exponent with an
# O(1/n) transient reads within a few 1e-4 of 1.  A heuristic, not a proof.
HALF_RUN_MAX = 1.25

# WEAK_PINCH's run (steps x replicates) and WEAK_TWIST's sample count
PINCH_N_ITER = 20000
PINCH_N_REP = 8
TWIST_N_SAMPLES = 200
# log_integrability's scan grid; a coarser one could miss close zero pairs
SCAN_GRID_N = CIRCLE_GRID_N

# Certifier thresholds on dimensionless quantities (WEAK_TWIST's sine
# distance and separated fraction, PINCH_D's gap over the spread, and
# |g| over its scale for a zero of log_integrability), so no rescaling of a
# tuple calls for other values.
SEP_TOL = 1e-3
FRAC_THRESHOLD = 0.05
REL_GAP = 1e-6
ZERO_REL_TOL = 1e-12

# Roots and dip minimizers are refined to this width in t.
ROOT_XTOL = 1e-12

# |g'(root)| must exceed this times sup |g| to count as transversal.
TRANSVERSAL_FACTOR = 1e-8
_DIFF_STEP = 3e-6
_ROOT_MERGE_TOL = 1e-9
# A zero this close to a scan node takes the node's limit in the integral.
# The limit is off by about m (pi n delta)^2 / 6n at a distance delta, the
# closed-form term by about m ROOT_XTOL / (n delta) for a root off by
# ROOT_XTOL; at this distance both are under 1e-9 m.
_NODE_TOL = 1e-7
_FIT_OFFSETS = np.geomspace(1e-7, 1e-4, 13)
# bisection stops at |step| < xtol + _BISECT_RTOL |x|, as scipy's does
_BISECT_RTOL = 4.0 * np.finfo(float).eps
_MAX_REFINE_ITER = 100
# bisect serves this many halvings of every open bracket per call of f
_LOOKAHEAD = 4
_GOLDEN_CUT = (math.sqrt(5.0) - 1.0) / 2.0


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else repr(v)
    return value


@dataclass
class Certificate:
    """Outcome of one certifier: verdict, margin, and witness diagnostics."""

    kind: str
    verdict: str
    margin: float
    diagnostics: dict = field(default_factory=dict)
    seed: int = None
    input_digest: str = None

    def __post_init__(self):
        if self.kind not in CERTIFICATE_KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        self.margin = float(self.margin)
        if not math.isfinite(self.margin):
            raise ValueError("margin must be finite")
        # TWIST_D has no graded pass margin, so a pass sits exactly at zero;
        # every other kind must clear its threshold.
        floor_ok = self.margin >= 0.0 if self.kind == "TWIST_D" else self.margin > 0.0
        if self.verdict == "PASS" and not floor_ok:
            raise ValueError(f"PASS {self.kind} certificate with margin {self.margin}")

    @property
    def passed(self):
        return self.verdict == "PASS"

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "margin": self.margin,
            "diagnostics": _jsonable(self.diagnostics),
            "seed": self.seed,
            "input_digest": self.input_digest,
        }

    def write_json(self, path):
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=1, sort_keys=True) + "\n"
        )


@dataclass(frozen=True)
class MinorIndex:
    """1-based, strictly increasing row and column subsets of equal size."""

    rows: tuple
    cols: tuple

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        cols = tuple(int(c) for c in self.cols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if len(rows) != len(cols) or not rows:
            raise ValueError("row and column subsets must be nonempty and equal size")
        for subset in (rows, cols):
            if any(b <= a for a, b in zip(subset, subset[1:])) or subset[0] < 1:
                raise ValueError("indices must be strictly increasing and >= 1")


def all_minor_indices(d):
    """All (rows, cols) minor index pairs of every cardinality 1..d."""
    for size in range(1, d + 1):
        for rows in combinations(range(1, d + 1), size):
            for cols in combinations(range(1, d + 1), size):
                yield MinorIndex(rows, cols)


def minor(matrix, index):
    """Determinant of the submatrix selected by a 1-based MinorIndex.

    Evaluated by the same cofactor rule as every TWIST_D minor (``_minors``).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("minor expects a square matrix")
    d = m.shape[0]
    if index.rows[-1] > d or index.cols[-1] > d:
        raise ValueError(f"minor index exceeds dimension {d}")
    rows = [r - 1 for r in index.rows]
    cols = [c - 1 for c in index.cols]
    return float(_minors(m[:, :, None], rows, cols)[0])


def weakly_pinching(product, *, seed=0):
    """Certify a positive top exponent for the first map of the tuple.

    PASS when the Monte Carlo estimate over ``PINCH_N_ITER`` steps and
    ``PINCH_N_REP`` replicates clears three standard errors (and a small
    absolute noise floor), and the estimate at the half run is at most
    ``HALF_RUN_MAX`` times the final one; otherwise INCONCLUSIVE, since
    sampling can never witness an exactly-zero exponent.  Every replicate
    sheds the log(n) / n of a zero exponent's polynomial growth alike, so
    the standard errors cannot see it, but the half-run ratio
    (``half_run_ratio``, null unless the estimate is above the noise
    floor) can.
    """
    est = estimate_top_exponent(product.solo(0), PINCH_N_ITER, PINCH_N_REP, seed)
    lam = est.top
    threshold = max(3.0 * float(est.stderr[0]), PINCH_NOISE_FLOOR)
    margin = lam - threshold
    ratio = float(est.half_run[0]) / lam if lam > PINCH_NOISE_FLOOR else None
    diagnostics = {"lambda_top": lam, "stderr": float(est.stderr[0]),
                   "threshold": threshold, "n_iter": PINCH_N_ITER, "n_rep": PINCH_N_REP,
                   "half_run_ratio": ratio}
    passed = margin > 0.0 and ratio <= HALF_RUN_MAX
    verdict = "PASS" if passed else "INCONCLUSIVE"
    return Certificate(kind="WEAK_PINCH", verdict=verdict, margin=margin,
                       diagnostics=diagnostics, seed=seed)


def weakly_twisting(product, *, seed=0):
    """Certify projective separation of holonomy images of the Oseledets pair.

    At ``TWIST_N_SAMPLES`` sampled points t the composed holonomy must move
    {e+, e-} off the pair at the holonomy-shifted point: a sample is
    separated when all four pairwise sine distances reach ``SEP_TOL``.  PASS
    when the separated fraction of converged samples exceeds
    ``FRAC_THRESHOLD``; fewer than half the samples converging is
    INCONCLUSIVE.  A sample is converged when both of its direction pairs
    meet ``holonomy.DIRECTION_TOL``.  Each pair is pulled back
    ``holonomy.SHORT_PULLBACK_DEPTH`` (16) steps first and, only where that
    has not converged, ``holonomy.PULLBACK_DEPTH`` (200) steps; the JSON
    reports both depths and ``deep_fraction``, the share of the pullbacks
    that fell through to the deep one.
    """
    if product.dim != 2:
        raise ValueError("weakly_twisting handles 2x2 tuples")
    if product.n_symbols < 2:
        raise ValueError("weakly_twisting needs symbols 0 and 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    ts = rng.random(TWIST_N_SAMPLES)
    offset = homoclinic_base_holonomy(product.angles[0], product.angles[1])
    holonomies = closed_form_holonomy_many(product, ts)

    n_converged = 0
    n_separated = 0
    n_deep = 0
    min_separation = None
    witnesses = []
    angle0 = product.angles[0]
    map0 = product.maps[0]
    for i, t in enumerate(ts):
        here = oseledets_directions(angle0, map0, t)
        there = oseledets_directions(angle0, map0, rotate(t, offset))
        n_deep += (here.depth == PULLBACK_DEPTH) + (there.depth == PULLBACK_DEPTH)
        if not (here.converged and there.converged):
            continue
        n_converged += 1
        hol = holonomies[i]
        separation = min(
            projective_distance(hol @ image, target)
            for image in (here.e_plus, here.e_minus)
            for target in (there.e_plus, there.e_minus)
        )
        if min_separation is None or separation < min_separation:
            min_separation = separation
        if separation >= SEP_TOL:
            n_separated += 1
        elif len(witnesses) < 8:
            witnesses.append({"t": float(t), "separation": float(separation)})

    converged_fraction = n_converged / len(ts)
    separated_fraction = n_separated / n_converged if n_converged else 0.0
    margin = separated_fraction - FRAC_THRESHOLD
    if converged_fraction < 0.5:
        verdict = "INCONCLUSIVE"
    elif margin > 0.0:
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return Certificate(
        kind="WEAK_TWIST",
        verdict=verdict,
        margin=margin,
        diagnostics={
            "n_samples": len(ts),
            "converged_fraction": converged_fraction,
            "separated_fraction": separated_fraction,
            "min_separation": min_separation,
            "sep_tol": SEP_TOL,
            "frac_threshold": FRAC_THRESHOLD,
            "n_pullback": PULLBACK_DEPTH,
            "short_pullback": SHORT_PULLBACK_DEPTH,
            "deep_fraction": n_deep / (2 * len(ts)),
            "witnesses": witnesses,
        },
        seed=seed,
    )


def pinching_d(exponents):
    """Certify pairwise-distinct subset sums of an exponent list.

    For every cardinality j in 1..d-1 all sums over j of the exponents must
    differ; gaps are normalized by the spread max-min (all-equal exponents
    have normalized gap 0), and the margin is the smallest normalized gap
    minus ``REL_GAP``.  A FAIL carries the colliding pair of 1-based index
    sets.
    """
    lam = np.asarray(exponents, dtype=float)
    if lam.ndim != 1 or len(lam) < 2:
        raise ValueError("need a flat list of at least two exponents")
    if not np.all(np.isfinite(lam)):
        raise ValueError("exponents must be finite")
    d = len(lam)
    spread = float(lam.max() - lam.min())
    best_gap = math.inf
    witness = None
    for size in range(1, d):
        sums = sorted(
            (float(lam[list(subset)].sum()), subset)
            for subset in combinations(range(d), size)
        )
        for (s_lo, set_lo), (s_hi, set_hi) in zip(sums, sums[1:]):
            gap = s_hi - s_lo
            if gap < best_gap:
                best_gap = gap
                witness = (size, set_lo, set_hi, s_lo, s_hi)
    size, set_lo, set_hi, s_lo, s_hi = witness
    normalized = best_gap / spread if spread > 0.0 else 0.0
    margin = normalized - REL_GAP
    verdict = "PASS" if margin > 0.0 else "FAIL"
    return Certificate(
        kind="PINCH_D",
        verdict=verdict,
        margin=margin,
        diagnostics={
            "spread": spread,
            "min_gap": best_gap,
            "min_normalized_gap": normalized,
            "rel_gap": REL_GAP,
            "witness": {
                "size": size,
                "first": [i + 1 for i in set_lo],
                "second": [i + 1 for i in set_hi],
                "sum_first": s_lo,
                "sum_second": s_hi,
            },
        },
    )


@dataclass
class LogIntegralResult:
    """Estimate of the circle integral of |log |g||, with the located zeros."""

    estimate: float
    zeros: list
    orders: list
    diagnostics: dict = field(default_factory=dict)

    @property
    def finite(self):
        return math.isfinite(self.estimate)


def bisect(f, lo, hi, xtol):
    """Roots of ``f`` in every bracket [lo[k], hi[k]], refined together.

    ``f`` maps a 1d array of points to values of equal shape; f(lo[k]) and
    f(hi[k]) must not share a strict sign.  Each bracket follows the
    arithmetic of scipy.optimize.bisect, except where scipy's product of
    two values under/overflows: halve the step, move the low end to the
    midpoint when f there has the sign f has at the original low end, and
    stop on an exact zero or once the step is below
    ``xtol + 4 eps |midpoint|``.  A bracket still open after 100 halvings
    returns its low end.

    The first call of ``f`` takes both ends of every bracket.  Each later
    call serves the next four halvings of every open bracket: it takes the
    15 midpoints those halvings can reach (fewer once the bracket's step is
    below ``xtol``), each built by the same addition low end + halved step
    that one halving at a time makes, and every bracket then walks down its
    own tree with the sign and stop tests in order.  So the roots are the
    bits of one halving per call, in about a quarter of the calls.
    """
    lo = np.array(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.size
    ends = f(np.concatenate([lo, hi]))
    f_lo, f_hi = ends[:n], ends[n:]
    if np.any(np.sign(f_lo) * np.sign(f_hi) > 0.0):
        raise ValueError("f must change sign on every bracket")
    roots = np.where(f_lo == 0.0, lo, hi)
    live = np.nonzero((f_lo != 0.0) & (f_hi != 0.0))[0].tolist()
    lows, steps = lo.tolist(), (hi - lo).tolist()
    # f times the sign of f at the low end is >= 0 exactly when scipy's
    # f_mid * f_lo is, but it cannot under/overflow
    signs = np.sign(f_lo).tolist()
    rtol = float(_BISECT_RTOL)
    halvings = 0
    while live and halvings < _MAX_REFINE_ITER:
        depth = min(_LOOKAHEAD, _MAX_REFINE_ITER - halvings)
        # level k of a bracket's tree holds the 2^k midpoints that its
        # (k + 1)-th halving from here can make; node j's children are 2j
        # (the low end stayed) and 2j + 1 (the low end moved to node j)
        points, trees = [], []
        for i in live:
            starts, h, path = [lows[i]], steps[i], []
            for _ in range(depth):
                h *= 0.5
                mids = [x + h for x in starts]
                points += mids
                path.append(h)
                if abs(h) < xtol:
                    break  # the bracket stops by this level
                starts = [x for pair in zip(starts, mids) for x in pair]
            trees.append(path)
        vals = f(np.array(points)).tolist()
        still_open = []
        base = 0
        for i, path in zip(live, trees):
            node = 0
            for k, h in enumerate(path):
                at = base + (1 << k) - 1 + node
                mid, f_mid = points[at], vals[at]
                node *= 2
                if f_mid * signs[i] >= 0.0:
                    lows[i] = mid
                    node += 1
                if f_mid == 0.0 or abs(h) < xtol + rtol * abs(mid):
                    roots[i] = mid
                    break
            else:
                steps[i] = h
                still_open.append(i)
            base += (1 << len(path)) - 1
        halvings += depth
        live = still_open
    for i in live:
        roots[i] = lows[i]
    return roots


def minimize_scalar(f, lo, hi, xtol):
    """Minimizers of ``f`` on every interval [lo[k], hi[k]], by golden-section search.

    Each iteration evaluates both interior points of every interval still
    wider than ``2 * xtol`` in one call of ``f`` and keeps the part around
    the smaller value, for at most 100 iterations.  Returns the midpoints of
    the final intervals, so a minimizer of an f that is unimodal on its
    interval lies within ``xtol`` of the point returned.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    for _ in range(_MAX_REFINE_ITER):
        live = np.nonzero(hi - lo > 2.0 * xtol)[0]
        if not live.size:
            break
        cut = _GOLDEN_CUT * (hi[live] - lo[live])
        left = hi[live] - cut
        right = lo[live] + cut
        vals = f(np.concatenate([left, right]))
        go_left = vals[:live.size] < vals[live.size:]
        hi[live[go_left]] = right[go_left]
        lo[live[~go_left]] = left[~go_left]
    return 0.5 * (lo + hi)


def _circle_gap(t, roots):
    """Circular distance from t (scalar or array) to the nearest of roots."""
    if not roots:
        return np.full(np.shape(t), math.inf)
    diff = np.abs(np.subtract.outer(t, roots))
    return np.minimum(diff, 1.0 - diff).min(axis=-1)


def _cell_integrals(logs):
    """Integral of |log |g|| over each scan cell (k, k + 1), over the cell width.

    ``logs`` holds log |g| on the scan grid.  Where it keeps its sign over
    a cell, the value is the trapezoid one.  Where it changes sign, |g|
    crosses 1 and |log |g|| has a kink: the cell takes the exact integral of
    |l|, l the linear interpolant, plus the Euler-Maclaurin end corrections
    -h^2/12 f' of the smooth pieces on both sides of the kink, which come to
    h |l'| / 6.  So a crossing costs O(h^3), not O(h^2).
    """
    a = np.abs(logs)
    b = np.roll(a, -1)
    cells = 0.5 * (a + b)
    kink = np.sign(logs) * np.sign(np.roll(logs, -1)) < 0.0
    a, b = a[kink], b[kink]
    cells[kink] += (a + b) / 6.0 - a * b / (a + b)
    return cells


def _vanishes_on_run(run_vals):
    """Does |g| on a run of sub-tolerance grid points mark an interval zero?

    A run of one or two points is an isolated zero.  A longer run is one
    only when |g| falls strictly to a single interior minimum and then
    rises strictly, as near a zero of high order; a flat or wavering run
    means g vanishes on an interval.
    """
    if len(run_vals) < 3:
        return False
    k = int(np.argmin(run_vals))
    steps = np.diff(run_vals)
    return not (0 < k < len(run_vals) - 1
                and np.all(steps[:k] < 0.0) and np.all(steps[k:] > 0.0))


def _fit_zero_order(abs_vals, sup):
    """Estimate order m and scale c of |g| ~ c |t - root|^m by a log-log fit.

    ``abs_vals[i]`` holds |g| at root - u and root + u for the i-th offset u
    of ``_FIT_OFFSETS``.  The integral reads c only at a zero within
    ``_NODE_TOL`` of a scan node (``log_integrability``).
    """
    log_u = []
    log_g = []
    for u, pair in zip(_FIT_OFFSETS, abs_vals.tolist()):
        for val in pair:
            if val > 0.0:
                log_u.append(math.log(u))
                log_g.append(math.log(val))
    if len(log_u) < 4:
        return 1, max(sup, 1.0)
    slope, _ = np.polyfit(log_u, log_g, 1)
    m = max(int(round(slope)), 1)
    log_c = float(np.mean(np.asarray(log_g) - m * np.asarray(log_u)))
    return m, math.exp(log_c)


def log_integrability(g, *, scale=1.0):
    """Estimate the circle integral of |log |g||, locating the zeros of g.

    The scan grid of ``SCAN_GRID_N`` points (``circle.circle_grid``) finds
    sign changes (refined by bisection to ``ROOT_XTOL`` in t) and runs of
    grid points with |g| below ``ZERO_REL_TOL * scale`` (a run's zeros are
    its nodes where g is exactly 0 or, with none, its center); dips of |g|
    below ``sqrt(ZERO_REL_TOL) * scale`` are polished by golden-section
    search to catch even-order zeros.  A run of three or more points means
    g vanishes on an interval, and the integral is infinite, unless |g|
    along it falls strictly to a single minimum and then rises strictly, as
    it does around a zero of high order.

    Each zero gets a transversality check of the central-difference
    derivative against ``TRANSVERSAL_FACTOR * sup |g|``; non-transversal
    zeros fall back to a log-log fit of the local order m, which has no
    upper cap.  Either gives the scale c of |g| ~ c |t - root|^m.

    The integral is read off the scan values: their trapezoid sum, corrected
    where |g| crosses 1 (``_cell_integrals``), plus m log |2 sin(pi n r)| / n
    for each zero r of order m, the gap between the trapezoid sum of
    m log |2 sin pi (t - r)| over the n scan nodes and its integral, 0
    (Sidi and Israeli, J. Sci. Comput. 1988).  So g with its zeros divided
    out, which is smooth, is integrated at the trapezoid rule's geometric
    rate however close the zeros lie.  A zero within ``_NODE_TOL`` of a node
    adds no such term; log |g| there takes its limit, log c - m log(2 pi n).

    ``g`` must accept a 1d array of circle points and return values of the
    same shape.  After the scan, every call of ``g`` serves all brackets,
    dips or zeros together: ``bisect`` calls it once for the bracket ends
    and then once per four halvings; golden-section search once per
    iteration, and once more to test the polished dips; one call takes the
    central-difference probes; and one the order-fit offsets of the
    non-transversal zeros.  Neighbouring grid values and bracket ends are
    compared by sign, never by their product, which would under/overflow
    for a g far from 1.
    ``scale``, finite and positive, is the size of the terms that make up g
    (a minor's Hadamard bound), so g and ``scale`` rescaled together give
    the same zeros.
    """
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    zero_thr = ZERO_REL_TOL * scale
    ts = circle_grid()
    vals = np.asarray(g(ts), dtype=float)
    if vals.shape != ts.shape:
        raise ValueError("g must map a 1d array of points to values of equal shape")
    if not np.all(np.isfinite(vals)):
        raise ValueError("g must be finite on the scan grid")
    absvals = np.abs(vals)
    sup = float(absvals.max())
    small = absvals < zero_thr

    # runs of grid points already inside the zero tolerance
    small_idx = np.nonzero(small)[0]
    groups = []
    if small_idx.size:
        groups = np.split(small_idx, np.nonzero(np.diff(small_idx) > 1)[0] + 1)
        if len(groups) > 1 and groups[0][0] == 0 and groups[-1][-1] == SCAN_GRID_N - 1:
            # the run straddles t = 0; unwrap its front half past 1
            groups[0] = np.concatenate([groups.pop(), groups[0] + SCAN_GRID_N])

    if sup < zero_thr or any(_vanishes_on_run(absvals[group % SCAN_GRID_N])
                             for group in groups):
        return LogIntegralResult(
            estimate=math.inf, zeros=[], orders=[],
            diagnostics={"reason": "g vanishes on an interval", "sup": sup,
                         "grid_n": SCAN_GRID_N, "scale": scale},
        )

    def f(x):
        return np.asarray(g(wrap_unit(x)), dtype=float)

    n = SCAN_GRID_N
    h = 1.0 / n
    # each run of grid points inside the zero tolerance gives its nodes where
    # g is exactly 0 or, with none, its center
    roots = []
    for group in groups:
        exact = group[vals[group % n] == 0.0] % n
        roots += (exact * h).tolist() if exact.size else [wrap_unit(float(np.mean(group * h)))]

    # sign changes between grid neighbors that are clear of the tolerance
    starts = ts[(~small) & (~np.roll(small, -1))
                & (np.sign(vals) * np.sign(np.roll(vals, -1)) < 0.0)]
    if starts.size:
        roots += [wrap_unit(r) for r in bisect(f, starts, starts + h, ROOT_XTOL).tolist()]

    # dips of |g| that may hide even-order zeros
    dip_thr = math.sqrt(ZERO_REL_TOL) * scale
    dips = ts[(absvals < dip_thr) & (~small)
              & (absvals < np.roll(absvals, 1)) & (absvals <= np.roll(absvals, -1))]
    dips = dips[_circle_gap(dips, roots) >= 2 * h]
    if dips.size:
        xs = minimize_scalar(lambda x: np.abs(f(x)), dips - h, dips + h, ROOT_XTOL * 0.1)
        hit = np.abs(f(xs)) < zero_thr
        for t_i, x in zip(dips[hit].tolist(), xs[hit].tolist()):
            # a zero polished from an earlier dip may already sit next to t_i
            if _circle_gap(t_i, roots) >= 2 * h:
                roots.append(wrap_unit(x))

    roots = sorted(roots)
    merged = []
    for r in roots:
        if merged and (r - merged[-1] < _ROOT_MERGE_TOL):
            continue
        merged.append(r)
    if len(merged) > 1 and (merged[0] + 1.0 - merged[-1]) < _ROOT_MERGE_TOL:
        merged.pop()
    roots = merged

    # the central difference, and for a non-transversal zero the order fit,
    # give each zero's order m and scale c
    q = len(roots)
    r = np.array(roots)
    probes = f(np.concatenate([r + _DIFF_STEP, r - _DIFF_STEP])) if q else r
    derivs = (probes[:q] - probes[q:]) / (2.0 * _DIFF_STEP)
    transversal = np.abs(derivs) > TRANSVERSAL_FACTOR * sup
    orders = [1] * q
    scales = np.abs(derivs).tolist()
    flat = np.nonzero(~transversal)[0]
    if flat.size:
        sides = r[flat, None, None] + np.stack([-_FIT_OFFSETS, _FIT_OFFSETS], axis=1)
        fit_vals = np.abs(f(sides.ravel())).reshape(sides.shape)
        for j, abs_vals in zip(flat.tolist(), fit_vals):
            orders[j], scales[j] = _fit_zero_order(abs_vals, sup)

    # Over the scan nodes the trapezoid sum of log |2 sin pi (t - x)| is
    # log |2 sin(pi n x)| / n, and its integral is 0.  So with l = log |g|
    # and |l| = 2 max(l, 0) - l, the trapezoid sum of |l| plus m times that
    # term for each zero x of order m is the integral, up to the error of
    # the trapezoid rule on smooth functions.  A zero within _NODE_TOL of a
    # node instead gives l there its limit minus the term, log c - m log(2 pi n).
    on_node = {}
    correction = 0.0
    for x, c, m in zip(roots, scales, orders):
        k = round(x * n)
        off = x * n - k  # exact, n being a power of two
        if abs(off) <= _NODE_TOL * n:
            on_node[k % n] = math.log(c) - m * math.log(2.0 * math.pi * n)
        else:
            correction += m * math.log(abs(2.0 * math.sin(math.pi * off))) / n
    nodes = list(on_node)
    off_node = np.ones(n, dtype=bool)
    off_node[nodes] = False
    logs = np.log(absvals, out=np.empty(n), where=off_node)
    logs[nodes] = list(on_node.values())

    return LogIntegralResult(
        estimate=float(circle_mean(_cell_integrals(logs))) + correction,
        zeros=[float(x) for x in roots],
        orders=orders,
        diagnostics={
            "transversal": transversal.tolist(),
            "derivatives": derivs.tolist(),
            "sup": sup,
            "grid_n": SCAN_GRID_N,
            "scale": scale,
        },
    )


def _minor_function(product, index, precomputed):
    """The minor ``index`` of the closed-form holonomy as a function of t.

    ``precomputed`` is one ``(points, entries)`` pair, the holonomy on
    ``points`` in the ``_entries`` layout.  Called on those points, the
    function reads the stored entries; any other points are evaluated
    afresh.
    """
    rows = [r - 1 for r in index.rows]
    cols = [c - 1 for c in index.cols]
    points, stored = precomputed

    def g(ts):
        entries = stored if np.array_equal(ts, points) else _entries(
            closed_form_holonomy_many(product, ts))
        return _minors(entries, rows, cols)

    return g


def twisting_d(product):
    """Certify log-integrability of every minor of the homoclinic holonomy.

    PASS iff the |log |minor|| integral is finite for every row/column
    subset pair of every cardinality.  A pass has margin 0.0 even when some
    minor touches zero tangentially, since a log-integrable tangency does
    not break twisting.  A FAIL carries minus the number of minors with an
    infinite integral as its margin, so every FAIL is below 0.  The largest
    per-minor count of non-transversal zeros is reported for every verdict
    as ``max_non_transversal`` in the diagnostics.

    Each minor on rows I gets the ``scale`` prod_{i in I} max_t |row_i H(t)|
    over the ``SCAN_GRID_N`` scan points, its Hadamard bound, which a
    rescaled map changes by the same factor as the minor, so neither zeros
    nor verdict depend on it.
    """
    d = product.dim
    # every minor scans, and integrates on, the same grid: the holonomy is
    # evaluated there once
    grid = circle_grid()
    precomputed = (grid, _entries(closed_form_holonomy_many(product, grid)))
    row_max = _max_row_norms(precomputed[1]).tolist()
    per_minor = []
    worst_non_transversal = 0
    n_infinite = 0
    infinite_witness = None
    for index in all_minor_indices(d):
        g = _minor_function(product, index, precomputed)
        scale = math.prod(row_max[r - 1] for r in index.rows)
        result = log_integrability(g, scale=scale)
        n_non_trans = sum(1 for flag in result.diagnostics.get("transversal", [])
                          if not flag)
        worst_non_transversal = max(worst_non_transversal, n_non_trans)
        per_minor.append({
            "rows": list(index.rows),
            "cols": list(index.cols),
            "integral": result.estimate,
            "n_zeros": len(result.zeros),
            "zeros": result.zeros,
            "orders": result.orders,
            "n_non_transversal": n_non_trans,
            "scale": scale,
        })
        if not result.finite:
            n_infinite += 1
            infinite_witness = infinite_witness or {
                "rows": list(index.rows), "cols": list(index.cols),
                "reason": result.diagnostics.get("reason")}
    return Certificate(
        kind="TWIST_D",
        verdict="FAIL" if n_infinite else "PASS",
        margin=float(-n_infinite),
        diagnostics={
            "minors": per_minor,
            "witness": infinite_witness,
            "max_non_transversal": worst_non_transversal,
            "grid_n": SCAN_GRID_N,
            "zero_rel_tol": ZERO_REL_TOL,
        },
    )
