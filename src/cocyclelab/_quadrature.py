"""Composite Gauss-Legendre rules shared by the integral estimators.

Each reference rule is built on first use and kept as read-only arrays.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss

GRADED_NODES = 32


def _on_panels(cuts, x, w):
    """Reference nodes ``x`` and weights ``w`` on [-1, 1] mapped to each panel."""
    lo, hi = cuts[:-1], cuts[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = (half[:, None] * x[None, :] + mid[:, None]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


@cache
def circle_rule():
    """The rule for smooth integrands on the circle: 64 equal panels of 64 nodes.

    Every circle integral of a diagonal exponent, of log |det| and of a
    zero-free TWIST_D minor uses it.
    """
    return _on_panels(np.linspace(0.0, 1.0, 65), *leggauss(64))


@cache
def _graded_reference():
    x, w = leggauss(GRADED_NODES)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def graded_panel_rule(a, b, edge_width):
    """Composite rule on [a, b] with panels doubling away from both ends.

    Suited to integrands that vary logarithmically near the interval ends:
    the first panel at each end has width ~edge_width and successive panels
    double, so the integrand moves by a bounded amount per panel.  Each
    panel carries GRADED_NODES nodes.
    """
    length = b - a
    if length <= 0.0:
        return np.zeros(0), np.zeros(0)
    edge_width = min(edge_width, length / 4.0)
    offsets = [0.0]
    w = edge_width
    while offsets[-1] + w < length / 2.0:
        offsets.append(offsets[-1] + w)
        w *= 2.0
    cuts = np.unique(np.concatenate([
        a + np.asarray(offsets),
        [a + length / 2.0],
        b - np.asarray(offsets),
        [a, b],
    ]))
    return _on_panels(cuts, *_graded_reference())
