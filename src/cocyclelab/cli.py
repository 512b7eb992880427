"""Command line front end.

Usage::

    cocyclelab <subcommand> --config experiment.json [--seed N] [--out path]

Subcommands: ``lyapunov``, ``certify``, ``sweep-energy``, ``continuity``,
``perturb-search``.  The config file format is documented in
:mod:`cocyclelab.experiments`; the tuple definition format in
:mod:`cocyclelab.fileio`.  Results are CSV tables with a '#'-prefixed
provenance header; certificates are written as JSON files next to the
table.  With no ``--out`` (and no ``out`` in the config) the table goes to
stdout.  Exit status is 0 when the experiment completed (FAIL verdicts are
data, not errors) and 1 on configuration or domain errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._version import __version__
from .errors import CocycleLabError
from .experiments import COMMANDS, load_experiment_config

_SUBCOMMAND_HELP = {
    "lyapunov": "estimate the Lyapunov spectrum of a tuple",
    "certify": "run the certification pipeline for the tuple's dimension",
    "sweep-energy": "top exponent across an energy grid (Schrodinger tuples)",
    "continuity": "spectrum deviations along an epsilon perturbation ladder",
    "perturb-search": "search a perturbation family for a passing tuple",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cocyclelab",
        description="numerical laboratory for random quasi-periodic cocycles",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _SUBCOMMAND_HELP.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True,
                         help="experiment config JSON path")
        sub.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        sub.add_argument("--out", default=None,
                         help="output CSV path (certificates go next to it)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_experiment_config(args.config, args.command, seed=args.seed,
                                        out=args.out)
        output = COMMANDS[args.command](config)
        text = output.table.emit()
        if config.out:
            out_path = Path(config.out)
            if out_path.parent != Path("."):
                out_path.parent.mkdir(parents=True, exist_ok=True)
            out_path.write_text(text)
            for cert in output.certificates:
                cert.write_json(out_path.with_suffix(f".{cert.kind.lower()}.json"))
        else:
            sys.stdout.write(text)
    except (CocycleLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
