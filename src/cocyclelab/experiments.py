"""Experiment drivers and configuration behind the command line front end.

An experiment is described by a JSON config file:

``kind``
    Optional experiment name; must match the subcommand when present.
``cocycle``
    Path of the tuple definition file, relative to the config file.
``seed``
    Required integer (the command line may override it); every run is
    fully determined by config + seed.
``out``
    Optional output CSV path (certificates go next to it as JSON).

Estimator knobs (all optional, with defaults): ``n_iter``, ``n_rep``,
``qr_period``, ``n_samples``, ``n_pullback``, ``grid_n``, ``zero_tol``,
``budget``, ``n_candidates``.  Each default is the named constant of the
module that uses it (``certify``, ``holonomy``, ``lyapunov``).  The
dimensionless certifier thresholds are constants, not knobs.  Keys the
loader does not read are ignored, so configs written for older versions
(say, with ``sep_tol`` or ``rel_gap``) keep loading.

Kind-specific fields: ``energies`` (list, or {min, max, steps}) for
sweep-energy; ``epsilons``, ``perturbation`` ({"coeffs": d*d rows}) and
``perturb_index`` for continuity.  The direction map B of
``perturbation`` may be singular: only each perturbed map A + eps B has to
pass the invertibility certificate.

Numeric fields go through the readers of :mod:`cocyclelab.fileio`: integer
fields (``seed``, the integer knobs, ``steps``, ``perturb_index``) must be
JSON integers, and numbers must be finite JSON numbers; ``NaN``,
``Infinity`` and numeric strings are rejected with a ConfigError that
names the field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._version import __version__
from .certify import (DEFAULT_GRID_N, DEFAULT_N_ITER, DEFAULT_N_REP,
                      DEFAULT_N_SAMPLES, DEFAULT_ZERO_TOL, pinching_d, twisting_d,
                      weakly_pinching, weakly_twisting)
from .cocycle import (DIAGONAL, SCHRODINGER, SL2, RandomProduct, TrigPolynomial,
                      make_schrodinger, rescale_diagonal, right_rotate,
                      shift_potential)
from .errors import ConfigError, UnsupportedPipelineError
from .fileio import (file_digest, load_cocycle, read_int, read_number,
                     read_numbers, read_rows)
from .holonomy import DEFAULT_PULLBACK
from .lyapunov import (DEFAULT_QR_PERIOD, diagonal_spectrum, estimate_spectrum,
                       estimate_top_exponent)
from .tables import ResultTable

EXPERIMENT_KINDS = ("lyapunov", "certify", "sweep-energy", "continuity",
                    "perturb-search")

_INT_KNOBS = {
    "n_iter": DEFAULT_N_ITER,
    "n_rep": DEFAULT_N_REP,
    "qr_period": DEFAULT_QR_PERIOD,
    "n_samples": DEFAULT_N_SAMPLES,
    "n_pullback": DEFAULT_PULLBACK,
    "grid_n": DEFAULT_GRID_N,
    "n_candidates": 8,
}
_FLOAT_KNOBS = {
    "zero_tol": DEFAULT_ZERO_TOL,
    "budget": 0.1,
}
DEFAULT_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4)


@dataclass
class ExperimentConfig:
    kind: str
    cocycle: object
    seed: int
    knobs: dict
    out: str = None
    energies: object = None
    epsilons: tuple = None
    perturbation: TrigPolynomial = None
    perturb_index: int = None
    digest: str = None

    def provenance(self):
        return {
            "config_digest": self.digest,
            "code_version": __version__,
            "seed": self.seed,
        }


@dataclass
class ExperimentOutput:
    table: ResultTable
    certificates: list = field(default_factory=list)


def _parse_energies(node):
    if isinstance(node, dict):
        lo = read_number(node.get("min"), "energies min")
        hi = read_number(node.get("max"), "energies max")
        steps = read_int(node.get("steps"), "energies steps", 1)
        if not math.isfinite(hi - lo):
            raise ConfigError("energies range overflows the float range")
        return np.linspace(lo, hi, steps)
    return np.array(read_numbers(node, "energies"))


def _parse_perturbation(node, d):
    """The (d, d) direction polynomial of a continuity probe."""
    if not isinstance(node, dict):
        raise ConfigError("continuity needs a 'perturbation' object with "
                          "'coeffs' rows for the direction map")
    rows = read_rows(node.get("coeffs"), "perturbation coeffs", d * d)
    return TrigPolynomial.from_rows((d, d), rows)


def load_experiment_config(path, kind, seed=None, out=None):
    """Read and validate an experiment config file for the given kind."""
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    declared = doc.get("kind")
    if declared is not None and declared != kind:
        raise ConfigError(f"config declares kind {declared!r}, command runs {kind!r}")

    if seed is None:
        seed = doc.get("seed")
    seed = read_int(seed, "seed (config 'seed' or --seed)", 0)

    knobs = {name: read_int(doc.get(name, default), name, 1)
             for name, default in _INT_KNOBS.items()}
    knobs.update((name, read_number(doc.get(name, default), name, positive=True))
                 for name, default in _FLOAT_KNOBS.items())

    cocycle_field = doc.get("cocycle")
    if not isinstance(cocycle_field, str):
        raise ConfigError("config needs a 'cocycle' path")
    cocycle = load_cocycle(path.parent / cocycle_field)

    energies = _parse_energies(doc.get("energies")) if kind == "sweep-energy" else None

    epsilons = perturbation = perturb_index = None
    if kind == "continuity":
        epsilons = doc.get("epsilons")
        epsilons = (DEFAULT_EPSILONS if epsilons is None
                    else tuple(read_numbers(epsilons, "epsilons", positive=True)))
        perturbation = _parse_perturbation(doc.get("perturbation"),
                                           cocycle.product.dim)
        n_symbols = cocycle.product.n_symbols
        perturb_index = doc.get("perturb_index")
        if perturb_index is None:
            perturb_index = 1 if n_symbols > 1 else 0
        if read_int(perturb_index, "perturb_index", 0) >= n_symbols:
            raise ConfigError(f"perturb_index must name a symbol in [0, {n_symbols})")

    if out is None:
        out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a path string")

    return ExperimentConfig(
        kind=kind, cocycle=cocycle, seed=seed, knobs=knobs, out=out,
        energies=energies, epsilons=epsilons,
        perturbation=perturbation, perturb_index=perturb_index,
        digest=file_digest(path),
    )


def certification_pipeline(product, seed=0, knobs=None):
    """Run the certificate chain appropriate for the tuple's dimension.

    d = 2 runs WEAK_PINCH then WEAK_TWIST; d > 2 requires a diagonal first
    map and runs PINCH_D on its exact exponents, then TWIST_D on the
    holonomy minors.  Fewer than two symbols, or d < 2, is unsupported.
    """
    kn = dict(_INT_KNOBS, **_FLOAT_KNOBS)
    kn.update(knobs or {})
    if product.n_symbols < 2:
        raise UnsupportedPipelineError(
            "certification needs at least two symbols (a fixed-point map and a "
            "homoclinic partner); add a second map to the tuple"
        )
    if product.dim < 2:
        raise UnsupportedPipelineError(
            f"certification needs d >= 2, got d = {product.dim}")
    if product.dim == 2:
        return [
            weakly_pinching(product, kn["n_iter"], kn["n_rep"], seed),
            weakly_twisting(product, kn["n_samples"], seed, kn["n_pullback"]),
        ]
    if product.maps[0].group_tag != DIAGONAL:
        raise UnsupportedPipelineError(
            f"the d = {product.dim} pipeline needs a diagonal first map; "
            "retag map 0 as diagonal (or supply a 2x2 tuple)"
        )
    exponents = diagonal_spectrum(product.solo(0))
    return [
        pinching_d(exponents),
        twisting_d(product, kn["grid_n"], kn["zero_tol"]),
    ]


def _is_sl2_like(product):
    return product.dim == 2 and all(
        m.group_tag in (SL2, SCHRODINGER) for m in product.maps
    )


def cmd_lyapunov(config):
    """Estimate the full spectrum of the configured tuple; one summary row."""
    product = config.cocycle.product
    kn = config.knobs
    est = estimate_spectrum(product, kn["n_iter"], kn["n_rep"], config.seed,
                            kn["qr_period"])
    d = product.dim
    columns = ([f"lambda_{i}" for i in range(1, d + 1)]
               + [f"stderr_{i}" for i in range(1, d + 1)]
               + ["n_iter", "n_rep"])
    row = list(est.values) + list(est.stderr) + [kn["n_iter"], kn["n_rep"]]
    if _is_sl2_like(product):
        # unit determinants force the exponents to cancel; report the sum
        columns.append("sl2_sum")
        row.append(float(est.values[0] + est.values[1]))
    table = ResultTable(columns, [row], config.provenance())
    return ExperimentOutput(table)


def cmd_certify(config):
    """Run the certification pipeline; one row per certificate."""
    certs = certification_pipeline(config.cocycle.product, config.seed, config.knobs)
    for cert in certs:
        cert.input_digest = config.cocycle.digest
        cert.seed = config.seed
    rows = [[c.kind, c.verdict, c.margin] for c in certs]
    table = ResultTable(["kind", "verdict", "margin"], rows, config.provenance())
    return ExperimentOutput(table, certificates=certs)


def cmd_sweep_energy(config):
    """Top exponent of the Schrodinger tuple across an energy grid."""
    cocycle = config.cocycle
    base = cocycle.product
    if not all(m.group_tag == SCHRODINGER for m in base.maps):
        raise ConfigError("sweep-energy expects every map tagged SCHRODINGER")
    # each map's entry is energy - u_s, whether or not the file lists u_s
    potentials = [shift_potential(-m.potential, cocycle.energy) for m in base.maps]
    kn = config.knobs
    rows = []
    for energy in config.energies:
        maps = [make_schrodinger(shift_potential(-u, float(energy))) for u in potentials]
        product = RandomProduct(base.angles, maps, base.weights)
        est = estimate_top_exponent(product, kn["n_iter"], kn["n_rep"], config.seed,
                                    kn["qr_period"])
        rows.append([float(energy), est.top, float(est.stderr[0])])
    table = ResultTable(["energy", "lambda_top", "stderr"], rows,
                        config.provenance())
    return ExperimentOutput(table)


def cmd_continuity_probe(config):
    """Spectrum deviations along an epsilon ladder of one perturbed map.

    The first row is the unperturbed estimate (same seed, exactly equal);
    the ``certified`` column flags whether the base tuple passed its
    certification pipeline, without which deviations carry no guarantee.
    """
    product = config.cocycle.product
    d = product.dim
    kn = config.knobs
    idx = config.perturb_index

    try:
        certs = certification_pipeline(product, config.seed, kn)
        certified = int(all(c.passed for c in certs))
    except UnsupportedPipelineError:
        certified = 0

    base = estimate_spectrum(product, kn["n_iter"], kn["n_rep"], config.seed,
                             kn["qr_period"])
    rows = [[0.0] + list(base.values) + [0.0, certified]]
    for eps in config.epsilons:
        perturbed = _with_map(product, idx,
                              product.maps[idx] + eps * config.perturbation)
        est = estimate_spectrum(perturbed, kn["n_iter"], kn["n_rep"], config.seed,
                                kn["qr_period"])
        deviation = float(np.max(np.abs(est.values - base.values)))
        rows.append([float(eps)] + list(est.values) + [deviation, certified])
    columns = (["epsilon"] + [f"lambda_{i}" for i in range(1, d + 1)]
               + ["deviation", "certified"])
    table = ResultTable(columns, rows, config.provenance())
    return ExperimentOutput(table)


def _ascending_ladder(budget, n):
    return [budget * 2.0 ** (j - (n - 1)) for j in range(n)]


def fejer_bump(center, degree):
    """Nonnegative trig polynomial of the given degree, peak value 1 at center.

    Fejer kernel normalized to unit height: the standard closed-under-
    truncation stand-in for a localized bump.
    """
    k = int(degree)
    if k < 1:
        raise ValueError("bump degree must be >= 1")
    amp = 2.0 * (1.0 - np.arange(1, k + 1) / (k + 1)) / (k + 1)
    phase = 2.0 * np.pi * np.arange(1, k + 1) * float(center)
    return TrigPolynomial(1.0 / (k + 1), amp * np.cos(phase), amp * np.sin(phase))


def _with_map(product, idx, new_map):
    maps = list(product.maps)
    maps[idx] = new_map
    return RandomProduct(product.angles, maps, product.weights)


def _search_candidates(product, failing, budget, n_candidates):
    """Perturbation family for the failing certificates: (family, parameter, tuple).

    ``failing`` lists the certificates of ``product`` that did not pass, in
    pipeline order.  At d > 2 only a failure of PINCH_D alone has a family:
    map 0 rescaled by exp(c v), with v_i = 2^-i, whose equal-size subset sums
    all differ.  Rescaling map 0 multiplies every holonomy minor by a
    constant, so it cannot repair TWIST_D, and a TWIST_D failure has none.
    """
    maps = product.maps
    ladder = _ascending_ladder(budget, n_candidates)
    if product.dim == 2:
        if all(m.group_tag == SCHRODINGER for m in maps):
            candidates = [
                ("potential_shift", c,
                 _with_map(product, 1,
                           make_schrodinger(shift_potential(maps[1].potential, c))))
                for c in ladder
            ]
            witnesses = failing[0].diagnostics.get("witnesses") or []
            center = witnesses[0]["t"] if witnesses else 0.25
            bump = fejer_bump(center, maps[1].degree + 8)
            candidates += [
                ("potential_bump", c,
                 _with_map(product, 1,
                           make_schrodinger(maps[1].potential + c * bump)))
                for c in ladder
            ]
            return candidates
        return [
            ("rotation", turns, _with_map(product, 1, right_rotate(maps[1], turns)))
            for turns in ladder
        ]
    if [cert.kind for cert in failing] != ["PINCH_D"]:
        return []
    direction = 0.5 ** np.arange(product.dim)
    return [
        ("diagonal_rescale", c,
         _with_map(product, 0, rescale_diagonal(maps[0], np.exp(c * direction))))
        for c in ladder
    ]


def _pipeline_summary(certs):
    margin = min(c.margin for c in certs)
    for cert in certs:
        if not cert.passed:
            return cert.verdict, margin, cert
    return "PASS", margin, None


def cmd_perturb_search(config):
    """Search a perturbation family for a tuple that passes certification.

    Candidate parameters grow from budget/2^(n-1) up to the budget (the
    smallest working perturbation wins); an already-passing tuple returns
    the zero perturbation.  Exhausting the ladder, or a failure with no
    family, is reported in the table, not raised.
    """
    product = config.cocycle.product
    kn = config.knobs
    columns = ["candidate", "family", "parameter", "verdict", "margin", "selected"]

    base_certs = certification_pipeline(product, config.seed, kn)
    verdict, margin, failing = _pipeline_summary(base_certs)
    rows = [[0, "none", 0.0, verdict, margin, int(failing is None)]]
    certs_out = base_certs
    if failing is not None:
        candidates = _search_candidates(
            product, [cert for cert in base_certs if not cert.passed], kn["budget"],
            kn["n_candidates"])
        for number, (family, parameter, candidate) in enumerate(candidates, start=1):
            certs = certification_pipeline(candidate, config.seed, kn)
            verdict, margin, still_failing = _pipeline_summary(certs)
            found = still_failing is None
            rows.append([number, family, parameter, verdict, margin, int(found)])
            if found:
                certs_out = certs
                break

    for cert in certs_out:
        cert.input_digest = config.cocycle.digest
        cert.seed = config.seed
    table = ResultTable(columns, rows, config.provenance())
    return ExperimentOutput(table, certificates=certs_out)


COMMANDS = {
    "lyapunov": cmd_lyapunov,
    "certify": cmd_certify,
    "sweep-energy": cmd_sweep_energy,
    "continuity": cmd_continuity_probe,
    "perturb-search": cmd_perturb_search,
}
