"""Self-test of the benchmark on tiny sizes of every workload.

Usage: ``python3 perfbench/selftest.py`` (from the root of a checkout).

Runs each workload twice, traced, at the ``gen.TINY`` sizes and asserts:

* no op fails its output checks;
* every wrapped name records at least one call on the workloads where it
  is exercised and none on the others (``EXERCISED``);
* on every thread, the self times of a span's children sum to no more than
  the span (``spans.check_nesting``);
* count metrics and output digests repeat exactly across the two runs;
* every wrap target exists, and a target that does not is reported as
  absent instead of failing the install.

Exits non-zero and prints the failed assertions when any does not hold.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import run
from spans import NAME, OP, TARGETS, Tracer, check_nesting

ALL = frozenset(run.gen.KINDS)
SEED = 20240601

# wrapped name -> workloads whose ops call it (all others must not)
EXERCISED = {
    "experiments.cmd": ALL,
    "experiments.load_experiment_config": ALL,
    "fileio.load_cocycle": ALL,
    "cocycle.TrigMatrixMap": ALL,
    "cocycle.eval_many": ALL,
    "tables.emit": ALL,
    "lyapunov.estimate_spectrum": {"spectrum"},
    "lyapunov.qr.calls": {"spectrum"},
    "lyapunov.estimate_top_exponent": {"sweep", "weak-d2"},
    "lyapunov.diagonal_spectrum": {"twist-d4"},
    "circle.base_orbit": {"weak-d2"},
    "holonomy.oseledets_directions": {"weak-d2"},
    "holonomy.projective_distance.calls": {"weak-d2"},
    "holonomy.closed_form_holonomy_many": {"weak-d2", "twist-d4"},
    "certify.weakly_pinching": {"weak-d2"},
    "certify.weakly_twisting": {"weak-d2"},
    "certify.write_json": {"weak-d2", "twist-d4"},
    "certify.pinching_d": {"twist-d4"},
    "certify.twisting_d": {"twist-d4"},
    "certify.log_integrability": {"twist-d4"},
    "certify.minor_fn.calls": {"twist-d4"},
    "certify.root_refine": {"twist-d4"},
}


def _calls(report, spans):
    """Calls per wrapped name over the traced ops of one run."""
    traced = [op for op in report["ops"] if op["traced"]]
    ids = {op["op"] for op in traced}
    calls = Counter(s[NAME] for s in spans if s[OP] in ids)
    for op in traced:
        calls.update({k: v for k, v in op["counts"].items() if k.endswith(".calls")})
    return calls


def _one_run(workload):
    report = run.run_workload(workload, SEED, 0.0, True, tiny=True)
    tag = f"{workload}-seed{SEED}-trace1"
    spans = json.loads((run.OUT / f"{tag}.spans.json").read_text())["spans"]
    return report, spans


def check_workload(workload):
    problems = []
    runs = [_one_run(workload) for _ in range(2)]
    for report, spans in runs:
        if report["failed"]:
            problems.append(f"failed ops: {report['failures']}")
        if report["absent"]:
            problems.append(f"absent wrap targets: {report['absent']}")
        bad = check_nesting(spans)
        if bad:
            problems.append(f"children's self times exceed their parent: {bad[:3]}")
        calls = _calls(report, spans)
        for name, workloads in EXERCISED.items():
            if (calls[name] > 0) != (workload in workloads):
                problems.append(f"{name}: {calls[name]} calls, expected "
                                f"{'some' if workload in workloads else 'none'}")
    (first, _), (second, _) = runs
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
              for r, _ in runs]
    if counts[0] != counts[1]:
        diff = {k: (v, counts[1][k]) for k, v in counts[0].items() if counts[1][k] != v}
        problems.append(f"count metrics differ between runs: {diff}")
    if first["digests"] != second["digests"]:
        problems.append("output digests differ between runs")
    return problems


def check_absent_target():
    sys.path.insert(0, str(run.SRC))
    tracer = Tracer()
    missing = ("missing.metric", "cocyclelab.certify", "no_such_function", None, True)
    tracer.install(TARGETS + [missing])
    tracer.uninstall()
    if not any(a.startswith("missing.metric") for a in tracer.absent):
        return ["a missing wrap target was not reported as absent"]
    return []


def check_benchmark_json():
    """BENCHMARK.json names exactly the workloads and metrics run.py emits."""
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if not {w["name"] for w in doc["workloads"]} <= ALL:
        problems.append("BENCHMARK.json names a workload run.py does not have")
    if [(m["name"], m["unit"]) for m in doc["end_to_end"]] != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in doc["per_layer"]] != [
            (name, unit) for name, unit, _ in run.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    return problems


def main():
    problems = {"absent-target": check_absent_target(),
                "benchmark-json": check_benchmark_json()}
    for workload in run.gen.KINDS:
        problems[workload] = check_workload(workload)
        print(f"{workload}: {'ok' if not problems[workload] else 'FAILED'}", flush=True)
    failed = {k: v for k, v in problems.items() if v}
    for key, items in failed.items():
        for item in items:
            print(f"{key}: {item}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
