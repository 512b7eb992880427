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
    the closed-form homoclinic holonomy, with each minor's zeros read off
    the unit-circle roots of the Fourier modes of the minor times
    det A0(t + offset), a trig polynomial of known degree, and each
    integral from Jensen's formula and Gauss-Legendre rules on the arcs
    where |minor| > 1.

Verdicts are PASS / FAIL / INCONCLUSIVE; a PASS always comes with a
nonnegative margin, a FAIL always carries a concrete witness in the
diagnostics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from pathlib import Path

import numpy as np

from ._circle_roots import (ZERO_REL_TOL, chop, circle_log_mean, evaluate, fourier_modes,
                            rounding, sample_points, zeros)
from ._cofactor import _entries, _max_row_norms, _minors
from .circle import homoclinic_base_holonomy, rotate, wrap_unit
from .holonomy import (PULLBACK_DEPTH, SHORT_PULLBACK_DEPTH,
                       closed_form_holonomy_many, oseledets_directions,
                       projective_distance)
from .lyapunov import _SCALE_SLACK, estimate_top_exponent

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
# log_integrability's scan grid for a g of no declared degree
SCAN_GRID_N = 1 << 14

# Certifier thresholds on dimensionless quantities (WEAK_TWIST's sine
# distance and separated fraction, PINCH_D's gap over the spread, and
# |g| over its scale for a zero of log_integrability), so no rescaling of a
# tuple calls for other values.
SEP_TOL = 1e-3
FRAC_THRESHOLD = 0.05
REL_GAP = 1e-6

# g counts as resolved when its chopped Fourier series ends below this
# degree: its modes from there to the scan grid's last one are rounding.
_MAX_DEGREE = SCAN_GRID_N // 4
# a zero is bisected on a bracket this many times its rounding radius wide
# on each side of its first estimate
_BRACKET = 4.0
# bisection stops at |step| < xtol + _BISECT_RTOL |x|, as scipy's does
_BISECT_RTOL = 4.0 * np.finfo(float).eps
_MAX_REFINE_ITER = 100
# bisect serves this many halvings of every open bracket per call of f
_LOOKAHEAD = 4
_GOLDEN_CUT = (math.sqrt(5.0) - 1.0) / 2.0
# the log+ integral's Gauss-Legendre rule: its points per panel, the
# agreement of a panel with its halves that ends its splitting, and the
# most rounds of splitting and panels in a round
_GL_POINTS = 20
_GL_TOL = 1e-13
_MAX_SPLITS = 40
_MAX_PANELS = 512
# the modes of the constant 1
_ONE = np.ones(1)
_LOG2 = math.log(2.0)


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
        images = (hol @ here.e_plus, hol @ here.e_minus)
        separation = min(
            projective_distance(image, target)
            for image in images
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
    """Estimate of the circle integral of |log |g||, with the located zeros.

    ``modes`` are the Fourier modes c_0 ... c_K that g was read as, or None
    when its integral was not read off them.
    """

    estimate: float
    zeros: list
    orders: list
    diagnostics: dict = field(default_factory=dict)
    modes: np.ndarray = None

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
    interval lies within ``xtol`` of the point returned.  Nothing in the
    package calls it since TWIST_D reads even-order zeros off root groups;
    ``perfbench/spans.py`` still times it with ``bisect`` as root refinement.
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


@cache
def _gauss_legendre():
    """Nodes and weights of the ``_GL_POINTS``-point Gauss-Legendre rule on [-1, 1].

    The nodes are the eigenvalues of the Jacobi matrix of the Legendre
    polynomials and the weights twice the squared first components of its
    eigenvectors (Golub and Welsch, Math. Comp. 1969).
    """
    k = np.arange(1.0, _GL_POINTS)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return nodes, 2.0 * vectors[0] ** 2


def _adaptive_gauss_legendre(f, lo, hi):
    """Sum of the integrals of ``f`` over the arcs [lo[k], hi[k]].

    Each panel takes the Gauss-Legendre rule on its halves, which stands
    once it agrees with the rule on the whole panel within ``_GL_TOL``
    times the larger of its value and the panel's width; the halves of a
    panel that does not are the next round's panels.  So the panels shrink
    about geometrically towards a log singularity of f off the real line,
    such as a complex zero of g next to the arc, and stay few elsewhere,
    where f is analytic (Trefethen and Weideman, SIAM Review 2014).  A
    round with more than ``_MAX_PANELS`` panels, which only rounding in f
    can keep apart, takes them all as they are.
    """
    nodes, weights = _gauss_legendre()

    def rule(a, b):
        half = 0.5 * (b - a)
        points = (0.5 * (a + b))[:, None] + half[:, None] * nodes
        return half * (f(points.ravel()).reshape(points.shape) @ weights)

    whole = rule(lo, hi)
    total = 0.0
    for _ in range(_MAX_SPLITS):
        mid = 0.5 * (lo + hi)
        halves = rule(np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = halves[:lo.size], halves[lo.size:]
        pair = left + right
        done = np.abs(whole - pair) <= _GL_TOL * np.maximum(np.abs(pair), hi - lo)
        if lo.size > _MAX_PANELS:
            done[:] = True
        total += float(pair[done].sum())
        keep = ~done
        lo, hi = (np.concatenate([lo[keep], mid[keep]]),
                  np.concatenate([mid[keep], hi[keep]]))
        whole = np.concatenate([left[keep], right[keep]])
        if not lo.size:
            return total
    return total + float(whole.sum())


def _abs_log_integral_from_modes(num, mean, threshold, den=_ONE):
    """Circle integral of |log |num / den||, num and den given by their modes.

    ``mean`` is the circle integral of log |num / den|, from Jensen's
    formula, and |l| = 2 max(l, 0) - l, so what is left is the integral of
    log |num / den| over the arcs where |num| > |den| (den defaults to 1).
    A g of modes c lies within 2 sum_{k >= 1} |c_k| of |c_0|, and when
    those bounds of num and den keep |num| on one side of |den| the
    integral is +-``mean`` and no arc is looked for.  When |den| stays
    within the rounding of num (``_circle_roots.rounding``), every point
    where |num| = |den| lies within the rounding radius r_z of a zero z of
    num, so log |num / den| keeps one sign but within those radii, and the
    integral is |``mean``|; what that neglects is at most 4 sum_z m_z r_z,
    m_z the order of z.  Otherwise the arcs end at the real zeros of
    num - den and num + den, from the same root finder, with ``threshold``
    as the zero threshold; on each arc log |num / den| is analytic, and it
    is integrated by adaptive Gauss-Legendre, with |num| floored at its
    rounding, below which num is noise beside a zero.  With no arc end,
    |num / den| stays on one side of 1 and the integral is +-``mean``
    again.  A constant den is never evaluated: its value is |c_0|.
    """
    num_rest = 2.0 * np.abs(num[1:]).sum()
    den_rest = 2.0 * np.abs(den[1:]).sum()
    if abs(num[0]) + num_rest <= abs(den[0]) - den_rest:
        return 0.0 - mean  # +0.0, not -0.0, for a log mean of 0
    if abs(num[0]) - num_rest > abs(den[0]) + den_rest:
        return mean
    floor = rounding(num)
    if abs(den[0]) + den_rest <= floor:
        return abs(mean)
    num_p = np.zeros(max(len(num), len(den)), dtype=complex)
    den_p = num_p.copy()
    num_p[:len(num)] = num
    den_p[:len(den)] = den
    ends = [zeros(chop(diff), threshold)[0] for diff in (num_p - den_p, num_p + den_p)
            if np.abs(diff).max() > threshold]
    ends = np.sort(np.concatenate(ends) % 1.0) if ends else np.zeros(0)

    def log_ratio(t):
        size = np.maximum(np.abs(evaluate(num, t)), floor)
        den_size = abs(den[0]) if len(den) == 1 else np.abs(evaluate(den, t))
        return np.log(size / den_size)

    if not ends.size:
        return mean if log_ratio(np.zeros(1))[0] > 0.0 else 0.0 - mean
    lo, hi = ends, np.append(ends[1:], ends[0] + 1.0)
    above = log_ratio(0.5 * (lo + hi)) > 0.0
    return 2.0 * _adaptive_gauss_legendre(log_ratio, lo[above], hi[above]) - mean


def _polished_zeros(modes, ts, orders, radii):
    """Zeros of g and their orders, sorted in [0, 1), from the first estimates.

    ``_circle_roots.zeros`` gives each zero's first estimate t, its order m
    and its rounding radius; the (m - 1)-th derivative of g, which has a
    simple zero there, is bisected on ``_BRACKET`` radii either side of t,
    or a quarter of the distance to the nearest other zero when that is
    less, where it changes sign across them, and t is kept otherwise.
    """
    apart = np.abs((ts[:, None] - ts + 0.5) % 1.0 - 0.5)
    np.fill_diagonal(apart, np.inf)
    # between two zeros of order m the (m - 1)-th derivative has other
    # zeros, none within a quarter of their distance for m <= 3
    width = np.minimum(_BRACKET * radii, 0.25 * apart.min(axis=1, initial=np.inf))
    for m in np.unique(orders).tolist():
        at = np.flatnonzero(orders == m)
        lo, hi = ts[at] - width[at], ts[at] + width[at]

        def f(x, m=m):
            return evaluate(modes, x, m - 1)

        ends = np.sign(f(np.concatenate([lo, hi])))
        flip = ends[:at.size] * ends[at.size:] <= 0.0
        if flip.any():
            ts[at[flip]] = bisect(f, lo[flip], hi[flip], 0.0)
    ts = wrap_unit(ts)
    order = np.argsort(ts)
    return ts[order], orders[order]


def log_integrability(g, *, scale=1.0, degree=None):
    """Estimate the circle integral of |log |g||, locating the zeros of g.

    ``g`` maps a 1d array of points to values of the same shape and is
    called once.  With a ``degree``, g must be a trig polynomial of at
    most that degree: it is called on ``sample_points(degree)``, and its
    modes above ``degree`` must be below ``ZERO_REL_TOL * scale``, or
    ``ValueError`` is raised.  Without one, g is called on the scan grid of
    ``SCAN_GRID_N`` points, and its modes, chopped where they fall to
    rounding, are g as a trig polynomial: exactly for a trig polynomial,
    to convergence for an analytic g.  The zeros of g are the unit-circle
    roots of that polynomial: the m roots that rounding splits off one zero
    of order m form one group, a group where |g| is at most
    ``ZERO_REL_TOL * scale`` is a zero of order m, which ``bisect`` polishes
    on the (m - 1)-th derivative (``_polished_zeros``), and a zero of order
    above 1 is reported as not transversal.

    The integral is 2 int log+ |g| - int log |g|.  The second term is
    Jensen's formula on the same roots, log |c_K| plus log |z| over the
    roots outside the unit circle, where the roots of a zero count as on
    it (``_circle_roots.zeros``; reported as ``log_mean``).  The first
    is adaptive Gauss-Legendre over the arcs where |g| > 1, whose ends are
    the real zeros of g - 1 and g + 1 (``_abs_log_integral_from_modes``).
    So no zero of g is ever a node of a rule.  The modes are the
    result's ``modes``.

    The integral is infinite when g stays below the threshold on the whole
    grid: it vanishes on an interval.  A g of no declared degree whose
    series has not converged by degree ``_MAX_DEGREE`` (a g that is not
    analytic) has no zeros to read off its modes: when |g| stays above the
    threshold at every node and g keeps one sign, it gets the periodic
    trapezoid rule's mean of |log |g|| on the scan grid with no zeros, and
    otherwise an infinite integral, since such a g may vanish on an
    interval.

    ``scale``, finite and positive, is the size of the terms that make up g
    (a minor's Hadamard bound), so g and ``scale`` rescaled together give
    the same zeros.  ``degree`` is a property of g like ``scale``.
    """
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    if degree is not None and not (isinstance(degree, (int, np.integer)) and degree >= 0):
        raise ValueError(f"degree must be a nonnegative integer, got {degree!r}")
    zero_thr = ZERO_REL_TOL * scale
    ts = np.arange(SCAN_GRID_N) / SCAN_GRID_N if degree is None else sample_points(int(degree))
    vals = np.asarray(g(ts), dtype=float)
    if vals.shape != ts.shape:
        raise ValueError("g must map a 1d array of points to values of equal shape")
    if not np.all(np.isfinite(vals)):
        raise ValueError("g must be finite at every point it is sampled at")
    absvals = np.abs(vals)
    diagnostics = {"sup": float(absvals.max()), "grid_n": len(ts), "scale": scale}
    if diagnostics["sup"] < zero_thr:
        return LogIntegralResult(estimate=math.inf, zeros=[], orders=[],
                                 diagnostics={"reason": "g vanishes on an interval",
                                              **diagnostics})
    modes = fourier_modes(vals, degree, zero_thr)
    if degree is None and len(modes) > _MAX_DEGREE:
        if absvals.min() > zero_thr and np.all(np.signbit(vals) == np.signbit(vals[0])):
            return LogIntegralResult(
                estimate=float(np.abs(np.log(absvals)).mean()), zeros=[], orders=[],
                diagnostics={"transversal": [], **diagnostics})
        return LogIntegralResult(estimate=math.inf, zeros=[], orders=[], diagnostics={
            "reason": "g is not resolved by its Fourier modes", **diagnostics})
    ts, orders, radii, mean = zeros(modes, zero_thr)
    ts, orders = _polished_zeros(modes, ts, orders, radii)
    orders = orders.tolist()
    return LogIntegralResult(
        estimate=_abs_log_integral_from_modes(modes, mean, ZERO_REL_TOL * (scale + 1.0)),
        zeros=ts.tolist(),
        orders=orders,
        diagnostics={"transversal": [m == 1 for m in orders], "log_mean": mean,
                     **diagnostics},
        modes=modes,
    )


def _minor_function(index, entries, weight):
    """The minor ``index`` of the holonomy times ``weight``, as ``log_integrability`` calls it.

    ``entries`` holds the holonomy on the n points k / n in the
    ``_entries`` layout and ``weight`` a function on those points, or None
    for 1; g takes any of those points, such as the subgrid that
    ``log_integrability`` samples for the minor's degree.
    """
    rows = [r - 1 for r in index.rows]
    cols = [c - 1 for c in index.cols]
    n = entries.shape[2]

    def g(ts):
        at = np.multiply(ts, n)
        nodes = at.astype(np.intp)
        if not np.array_equal(nodes, at):
            raise ValueError(f"the minor is known only at the points k / {n}")
        vals = _minors(entries[:, :, nodes], rows, cols)
        return vals if weight is None else vals * weight[nodes]

    return g


def twisting_d(product):
    """Certify log-integrability of every minor of the homoclinic holonomy.

    PASS iff the |log |minor|| integral is finite for every row/column
    subset pair of every cardinality.  A pass has margin 0.0 even when some
    minor touches zero tangentially, since a log-integrable tangency does
    not break twisting.  A FAIL carries minus the number of minors with an
    infinite integral as its margin, so every FAIL is below 0.  The largest
    per-minor count of non-transversal zeros (zeros of order above 1) is
    reported for every verdict as ``max_non_transversal`` in the
    diagnostics.

    Each k x k minor times w(t) = det A0(t + offset) is a trig polynomial
    of degree at most K = k deg A1 + (d - k) deg A0 (Cauchy-Binet and
    Jacobi's complementary-minor identity), and w has no zero on the
    circle.  So the holonomy H(t) = A0(t + offset)^-1 A1(t) is evaluated
    once, on the ``sample_points`` of the largest K, d max(deg A0, deg A1)
    (the JSON's ``grid_n``), and so is w over its largest |value| there,
    unless A0 is constant; ``log_integrability`` with ``degree`` K reads
    the product's zeros and their orders, the minor's own, off the
    unit-circle roots of its modes.  When A0 is constant, the minor is
    such a polynomial itself and ``log_integrability`` gives its integral
    too; otherwise the minor's integral is that of |log |N / w||, N the
    product: Jensen's formula gives int log |N| - int log |w|, the latter
    from ``circle_log_mean``, and the arcs
    where |N| > |w| end at the real zeros of N - w and N + w
    (``_abs_log_integral_from_modes``).  Each minor on rows I gets the
    ``scale`` prod_{i in I} max_t |row_i H(t)| over those points, its
    Hadamard bound, which a rescaled map changes by the same factor as the
    minor, so neither zeros nor verdict depend on it.

    A row of H whose largest entry lies outside 2^+-64 is first scaled by
    2^-e, e the exponent of that entry, which is exact; ``scale`` is then
    that of the scaled rows.  The minor on rows I is 2^E times the one read
    off, E the sum of e over I, and its integral is that of
    |log |N / (2^-E w)||, w = 1 when A0 is constant, by the same route at
    every E: where |2^-E w| lies within the rounding of N, every crossing
    of |minor| = 1 lies within the rounding radius of a zero, and the
    integral is |int log |minor||.  2^-E is capped at 2^960, past which
    |minor| < 1 on the whole circle anyway.  So maps at widely different
    scales give the zeros, orders and verdict of the tuple at one scale.
    """
    d = product.dim
    degree0, degree1 = product.maps[0].degree, product.maps[1].degree
    ts = sample_points(d * max(degree0, degree1))
    entries = _entries(closed_form_holonomy_many(product, ts))
    # row i outside 2^+-_SCALE_SLACK is scaled by 2^-e_i (exact), so the
    # minor on rows I is 2^E times the one computed, E the sum of e_i over I
    exps = np.frexp(np.abs(entries).max(axis=(1, 2)))[1]
    exps[np.abs(exps) <= _SCALE_SLACK] = 0
    entries *= np.ldexp(1.0, -exps)[:, None, None]
    exps = exps.tolist()
    row_max = _max_row_norms(entries).tolist()
    # a constant det A0 only scales every minor: w = 1
    weight, weight_modes, weight_log_mean = None, _ONE, 0.0
    if degree0:
        offset = homoclinic_base_holonomy(product.angles[0], product.angles[1])
        a0 = product.maps[0].eval_many(rotate(ts, offset))
        det0 = _minors(a0.transpose(1, 2, 0), list(range(d)), list(range(d)))
        weight = det0 / np.abs(det0).max()
        weight_modes, _, weight_log_mean = circle_log_mean(weight, d * degree0)
    per_minor = []
    worst_non_transversal = 0
    n_infinite = 0
    infinite_witness = None
    for index in all_minor_indices(d):
        k = len(index.rows)
        scale = math.prod(row_max[r - 1] for r in index.rows)
        result = log_integrability(_minor_function(index, entries, weight), scale=scale,
                                   degree=k * degree1 + (d - k) * degree0)
        integral = result.estimate
        power = sum(exps[r - 1] for r in index.rows)
        if result.finite and (power or weight is not None):
            # the minor is N / (2^-E w), N the product read off.  2^-E is
            # capped at 2^960, which leaves den, its mode bound and its values
            # 2^63 below overflow; past it |minor| < 1 on the whole circle
            # anyway, as the bound of k rows within 2^64 is below 2^960
            mean = result.diagnostics["log_mean"] - weight_log_mean + power * _LOG2
            unit = math.ldexp(1.0, min(-power, 960))
            integral = _abs_log_integral_from_modes(
                result.modes, mean, ZERO_REL_TOL * (scale + unit), unit * weight_modes)
        n_non_trans = sum(1 for flag in result.diagnostics.get("transversal", [])
                          if not flag)
        worst_non_transversal = max(worst_non_transversal, n_non_trans)
        per_minor.append({
            "rows": list(index.rows),
            "cols": list(index.cols),
            "integral": integral,
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
            "grid_n": len(ts),
            "zero_rel_tol": ZERO_REL_TOL,
        },
    )
