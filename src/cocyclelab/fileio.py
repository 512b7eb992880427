"""Read and write cocycle definition files (JSON).

Schema, all keys top level:

``d``
    Matrix dimension.
``k``
    Highest symbol; the file describes k+1 maps/angles/weights.
``angles``
    k+1 floats, rotation angle per symbol (reduced mod 1 on load).
``weights``
    k+1 positive floats; the parser rejects sums off 1 by more than 1e-9
    and renormalizes the accepted ones exactly to sum 1.
``maps``
    List of k+1 objects ``{group_tag, degree, coeffs}``; ``coeffs`` holds
    d*d rows in row-major entry order, each row ``[c0, a1, b1, ..., aK,
    bK]`` listing the constant and per-frequency cosine/sine coefficients.
    Optional when ``potentials`` is present.
``potentials``
    Optional list of k+1 rows in the same layout: the scalar potentials u_s
    used by energy sweeps.  When ``maps`` is omitted, map s is the
    Schrodinger transfer map of phi_s = energy - u_s.
``energy``
    Optional finite number E, default 0.0 (used to build or check maps from
    potentials).

When a file has both ``maps`` and ``potentials``, every SCHRODINGER map
must equal the transfer map of energy - u_s to within
``SCHRODINGER_MATCH_TOL`` per coefficient; the loader rejects the file
otherwise.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cocycle import (GROUP_TAGS, SCHRODINGER, RandomProduct, ScalarPotential,
                      TrigMatrixMap, _pad_modes, make_schrodinger, shift_potential)
from .errors import ConfigError

SCHRODINGER_MATCH_TOL = 1e-12


@dataclass
class CocycleFile:
    """A parsed cocycle definition plus its provenance digest."""

    product: RandomProduct
    potentials: list
    energy: float
    digest: str
    path: str


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def product_to_dict(product, potentials=None, energy=None):
    doc = {
        "d": product.dim,
        "k": product.n_symbols - 1,
        "angles": [float(a) for a in product.angles],
        "weights": [float(w) for w in product.weights],
        "maps": [
            {
                "group_tag": m.group_tag,
                "degree": m.degree,
                "coeffs": m.to_entry_rows(),
            }
            for m in product.maps
        ],
    }
    if potentials is not None:
        doc["potentials"] = [p.to_row() for p in potentials]
    if energy is not None:
        doc["energy"] = float(energy)
    return doc


def _max_coeff_gap(a, b):
    """Largest coefficient difference of two maps of the same dimension."""
    k = max(a.degree, b.degree)
    gaps = [np.abs(a.const - b.const)]
    for x, y in ((a.cos_coeffs, b.cos_coeffs), (a.sin_coeffs, b.sin_coeffs)):
        gaps.append(np.abs(_pad_modes(x, k) - _pad_modes(y, k)))
    return max(float(g.max(initial=0.0)) for g in gaps)


def product_from_dict(doc):
    """Build (RandomProduct, potentials, energy) from a schema dict."""
    try:
        d = int(doc["d"])
        k = int(doc["k"])
        angles = np.asarray(doc["angles"], dtype=float)
        weights = np.asarray(doc["weights"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed cocycle definition: {exc}") from exc
    if d < 1 or k < 0:
        raise ConfigError("need d >= 1 and k >= 0")
    n = k + 1
    if angles.shape != (n,) or weights.shape != (n,):
        raise ConfigError(f"need exactly k+1 = {n} angles and weights")
    if np.any(weights <= 0.0):
        raise ConfigError("weights must be positive")
    total = weights.sum()
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"weights sum to {total!r}, off 1 by more than 1e-9")
    weights = weights / total

    energy = doc.get("energy", 0.0)
    if (isinstance(energy, bool) or not isinstance(energy, (int, float))
            or not np.isfinite(float(energy))):
        raise ConfigError(f"energy must be a finite number, got {energy!r}")
    energy = float(energy)
    potentials = None
    if "potentials" in doc:
        rows = doc["potentials"]
        if not isinstance(rows, list) or len(rows) != n:
            raise ConfigError(f"potentials must be a list of k+1 = {n} rows")
        try:
            potentials = [ScalarPotential.from_row(r) for r in rows]
        except ValueError as exc:
            raise ConfigError(f"malformed potential row: {exc}") from exc

    if "maps" in doc:
        specs = doc["maps"]
        if not isinstance(specs, list) or len(specs) != n:
            raise ConfigError(f"maps must be a list of k+1 = {n} map objects")
        maps = []
        for s, spec in enumerate(specs):
            try:
                tag = spec["group_tag"]
                degree = int(spec["degree"])
                coeffs = spec["coeffs"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"map {s}: malformed spec: {exc}") from exc
            if tag not in GROUP_TAGS:
                raise ConfigError(f"map {s}: unknown group tag {tag!r}")
            try:
                m = TrigMatrixMap.from_entry_rows(d, coeffs, group_tag=tag)
            except ValueError as exc:
                raise ConfigError(f"map {s}: {exc}") from exc
            if m.degree != degree:
                raise ConfigError(
                    f"map {s}: declared degree {degree} but rows encode {m.degree}"
                )
            if tag == SCHRODINGER and potentials is not None:
                expected = make_schrodinger(shift_potential(-potentials[s], energy))
                if _max_coeff_gap(m, expected) > SCHRODINGER_MATCH_TOL:
                    raise ConfigError(
                        f"map {s}: coefficients differ from the Schrodinger map "
                        f"of energy - potentials[{s}] at energy {energy!r}"
                    )
                m.potential = expected.potential
            maps.append(m)
    else:
        if potentials is None:
            raise ConfigError("need maps, or potentials to derive Schrodinger maps")
        if d != 2:
            raise ConfigError("derived Schrodinger maps require d = 2")
        maps = [make_schrodinger(shift_potential(-u, energy)) for u in potentials]

    try:
        product = RandomProduct(angles, maps, weights)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return product, potentials, energy


def load_cocycle(path):
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read cocycle definition {path}: {exc}") from exc
    product, potentials, energy = product_from_dict(doc)
    return CocycleFile(
        product=product,
        potentials=potentials,
        energy=energy,
        digest=file_digest(path),
        path=str(path),
    )


def save_cocycle(product, path, potentials=None, energy=None):
    doc = product_to_dict(product, potentials=potentials, energy=energy)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return file_digest(path)
