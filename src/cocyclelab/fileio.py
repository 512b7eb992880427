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
    Optional list of k+1 rows in the same layout: the scalar potentials
    u_s.  When ``maps`` is omitted, map s is the Schrodinger transfer map
    of phi_s = energy - u_s.  The rows only build or check the maps; the
    loaded record does not keep them.
``energy``
    Optional finite number E, default 0.0 (used to build or check maps from
    potentials; energy sweeps read u_s = E - phi_s off the maps).

When a document has both ``maps`` and ``potentials``, every SCHRODINGER
map must equal the transfer map of energy - u_s to within
``SCHRODINGER_MATCH_TOL`` per coefficient.  One check enforces this on
both sides: the loader rejects such a file, and the writer raises before
it writes one.

Every field is read by the shared readers below, which the experiment
config loader uses too: integer fields (``d``, ``k``, ``degree``) must be
JSON integers, so ``2.0`` and ``"2"`` are rejected; numbers must be finite
JSON numbers, so ``NaN``, ``Infinity`` and numeric strings are rejected.
A violation raises :class:`ConfigError` naming the field.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cocycle import (GROUP_TAGS, SCHRODINGER, RandomProduct, TrigMatrixMap,
                      TrigPolynomial, make_schrodinger, shift_potential)
from .errors import ConfigError

SCHRODINGER_MATCH_TOL = 1e-12


@dataclass
class CocycleFile:
    """A parsed cocycle definition plus its provenance digest."""

    product: RandomProduct
    energy: float
    digest: str


def file_digest(path):
    """SHA-256 hex digest of a file's bytes, the provenance id of an input."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_schrodinger_match(s, mat_map, potential, energy):
    """Reject a SCHRODINGER map s that is not the transfer map of energy - u_s."""
    if mat_map.group_tag != SCHRODINGER:
        return
    gap = mat_map.potential + -shift_potential(-potential, energy)
    if np.abs(gap.to_rows()).max() > SCHRODINGER_MATCH_TOL:
        raise ConfigError(
            f"map {s}: coefficients differ from the Schrodinger map "
            f"of energy - potentials[{s}] at energy {energy!r}"
        )


def product_to_dict(product, potentials=None, energy=None):
    """The schema dict of a tuple; raises ConfigError where the loader would."""
    if energy is not None:
        energy = read_number(energy, "energy")
    if potentials is not None:
        if len(potentials) != product.n_symbols:
            raise ConfigError(f"need one potential per map, got {len(potentials)}")
        for s, (m, u) in enumerate(zip(product.maps, potentials)):
            _check_schrodinger_match(s, m, u, 0.0 if energy is None else energy)
    doc = {
        "d": product.dim,
        "k": product.n_symbols - 1,
        "angles": [float(a) for a in product.angles],
        "weights": [float(w) for w in product.weights],
        "maps": [
            {
                "group_tag": m.group_tag,
                "degree": m.degree,
                "coeffs": m.to_rows(),
            }
            for m in product.maps
        ],
    }
    if potentials is not None:
        doc["potentials"] = [row for p in potentials for row in p.to_rows()]
    if energy is not None:
        doc["energy"] = energy
    return doc


def read_int(value, name, minimum=0):
    """A JSON integer >= ``minimum``; bools and floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def read_number(value, name, positive=False):
    """A finite JSON number as a float, > 0 if ``positive`` (NaN fails the bound)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max or (positive and value <= 0)):
        what = "a finite positive" if positive else "a finite"
        raise ConfigError(f"{name} must be {what} number, got {value!r}")
    return float(value)


def read_numbers(value, name, length=None, positive=False):
    """A non-empty list of numbers, exactly ``length`` of them if given, as floats."""
    if not (isinstance(value, list) and value and length in (None, len(value))):
        raise ConfigError(f"{name} must be a list of {length or 'one or more'} numbers")
    return [read_number(v, f"{name}[{i}]", positive) for i, v in enumerate(value)]


def read_rows(value, name, count, same_length=True):
    """``count`` coefficient rows [c0, a1, b1, ..., aK, bK], each of odd length
    1 + 2*degree; one shared length (the entries of one map) if ``same_length``."""
    if not (isinstance(value, list) and len(value) == count):
        raise ConfigError(f"{name} must be a list of {count} coefficient rows")
    rows = [read_numbers(row, f"{name}[{i}]") for i, row in enumerate(value)]
    lengths = {len(row) for row in rows}
    if any(n % 2 == 0 for n in lengths) or (same_length and len(lengths) > 1):
        shared = "a shared " if same_length else ""
        raise ConfigError(f"{name} rows must have {shared}odd length 1 + 2*degree")
    return rows


def product_from_dict(doc):
    """Build (RandomProduct, energy) from a schema dict."""
    if not isinstance(doc, dict):
        raise ConfigError("a cocycle definition must be a JSON object")
    d = read_int(doc.get("d"), "d", 1)
    n = read_int(doc.get("k"), "k", 0) + 1
    angles = read_numbers(doc.get("angles"), "angles", n)
    weights = np.array(read_numbers(doc.get("weights"), "weights", n, positive=True))
    total = weights.sum()
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"weights sum to {total!r}, off 1 by more than 1e-9")
    weights = weights / total

    energy = read_number(doc.get("energy", 0.0), "energy")
    potentials = None
    if "potentials" in doc:
        rows = read_rows(doc["potentials"], "potentials", n, same_length=False)
        potentials = [TrigPolynomial.from_rows((), [r]) for r in rows]

    if "maps" in doc:
        specs = doc["maps"]
        if not isinstance(specs, list) or len(specs) != n:
            raise ConfigError(f"maps must be a list of k+1 = {n} map objects")
        maps = []
        for s, spec in enumerate(specs):
            if not isinstance(spec, dict):
                raise ConfigError(f"maps[{s}] must be an object, got {spec!r}")
            tag = spec.get("group_tag")
            if not (isinstance(tag, str) and tag in GROUP_TAGS):
                raise ConfigError(f"maps[{s}] group_tag must be one of "
                                  f"{sorted(GROUP_TAGS)}, got {tag!r}")
            degree = read_int(spec.get("degree"), f"maps[{s}] degree", 0)
            coeffs = read_rows(spec.get("coeffs"), f"maps[{s}] coeffs", d * d)
            try:
                m = TrigMatrixMap.from_rows((d, d), coeffs, group_tag=tag)
            except ValueError as exc:
                raise ConfigError(f"map {s}: {exc}") from exc
            if m.degree != degree:
                raise ConfigError(
                    f"map {s}: declared degree {degree} but rows encode {m.degree}"
                )
            if potentials is not None:
                _check_schrodinger_match(s, m, potentials[s], energy)
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
    return product, energy


def load_cocycle(path):
    """Read and validate a tuple definition file into a :class:`CocycleFile`."""
    path = Path(path)
    try:
        data = path.read_bytes()
        doc = json.loads(data)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read cocycle definition {path}: {exc}") from exc
    product, energy = product_from_dict(doc)
    return CocycleFile(product=product, energy=energy, digest=hashlib.sha256(data).hexdigest())


def save_cocycle(product, path, potentials=None, energy=None):
    """Write a tuple definition file; returns the digest of what was written."""
    doc = product_to_dict(product, potentials=potentials, energy=energy)
    data = (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()
