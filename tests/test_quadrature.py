"""The shared Gauss-Legendre rules behind every circle integral."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from cocyclelab import _quadrature


def _panel_rule(a, b, panels, nodes):
    # the general composite rule the circle rule replaced, called as (0, 1, 64, 64)
    x, w = leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = (half[:, None] * x[None, :] + mid[:, None]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return xs, ws


def test_circle_rule_is_the_old_rule_bit_for_bit():
    xs, ws = _quadrature.circle_rule()
    want_xs, want_ws = _panel_rule(0.0, 1.0, 64, 64)
    assert xs.tobytes() == want_xs.tobytes()
    assert ws.tobytes() == want_ws.tobytes()
    assert _quadrature.circle_rule() is _quadrature.circle_rule()


def test_rules_are_read_only():
    xs, ws = _quadrature.circle_rule()
    for arr in (xs, ws, *_quadrature.graded_panel_rule(0.1, 0.6, 1e-4)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5


def test_graded_rule_integrates_polynomials_exactly():
    xs, ws = _quadrature.graded_panel_rule(0.2, 0.7, 1e-5)
    assert len(xs) % _quadrature.GRADED_NODES == 0
    assert np.all(np.diff(xs) > 0.0) and xs[0] > 0.2 and xs[-1] < 0.7
    assert abs(float(ws @ xs ** 3) - (0.7 ** 4 - 0.2 ** 4) / 4.0) <= 1e-15
    empty = _quadrature.graded_panel_rule(0.5, 0.5, 1e-5)
    assert all(len(part) == 0 for part in empty)


def test_rules_are_built_on_first_use_not_at_import():
    # building the reference rules costs milliseconds every CLI start-up would pay
    code = "\n".join([
        "import numpy.polynomial.legendre as legendre",
        "calls = []",
        "real = legendre.leggauss",
        "legendre.leggauss = lambda n: calls.append(n) or real(n)",
        "import cocyclelab",
        "from cocyclelab import _quadrature",
        "assert calls == [], calls",
        "_quadrature.circle_rule(); _quadrature.circle_rule()",
        "assert calls == [64], calls",
        "_quadrature.graded_panel_rule(0.1, 0.9, 1e-3)",
        "_quadrature.graded_panel_rule(0.2, 0.8, 1e-3)",
        "assert calls == [64, 32], calls",
    ])
    package_root = str(Path(_quadrature.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=package_root))
    assert proc.returncode == 0, proc.stderr
