"""cocyclelab benchmark: seeded experiment workloads, end to end and per layer.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads (one op = one CLI-equivalent experiment; see ``gen.py``):

``spectrum``  ``lyapunov`` on a d = 3 tuple, n_iter 1e5, n_rep 8, parallel 1.
``sweep``     ``sweep-energy`` on a Schrodinger pair, 11 energies, parallel 2.
``weak-d2``   ``certify`` on a Schrodinger pair (WEAK_PINCH, WEAK_TWIST).
``twist-d4``  ``certify`` on a d = 4 tuple (PINCH_D, TWIST_D, 69 minors).

``BENCHMARK.json`` leaves ``sweep`` out: its two threads made its op time
spread by about 30% between runs on a shared two-core host, more than any
usable bound.  It stays runnable here for work on parallelism.

A run writes a pool of inputs from the seed, then measures for ``--seconds``
seconds in total: first set-up probes (fresh interpreters that import
cocyclelab and load a config), then one child process that runs ops until
the time is spent.  Children run the program from ``src/`` of the checkout
with BLAS pinned to one thread.  Output checks (``checks.py``) run after
the child has ended and count failed ops.

``--trace 0`` reports the end-to-end metrics: ``op_s`` (median seconds of
the ops that returned, whether or not their output passed),
``setup_s`` (median set-up seconds) and ``peak_rss_mb`` (peak resident
memory of the child).  ``--trace 1`` alternates traced and untraced ops in
one child and reports the per-layer metrics (``spans.py``): counts over one
traced op per input, span seconds as medians over traced ops, and
``*_pct`` shares of the op's root span ``experiments.cmd``; a layer that an
op may legitimately bypass is reported as a share so that its zero is not
a time.  ``trace.overhead_s`` is the median traced op time minus the
median untraced op time.

A human-readable report with sample counts, quartiles, machine and code
goes to stderr and to ``perfbench/out/``; the last line of stdout is the
JSON result.  The exit code is non-zero when the checkout holds no
program to run.  ``selftest.py`` checks the benchmark itself on tiny sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from checks import Checker
from spans import OP, summarize_op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0

SETUP_CODE = ("import sys\nimport cocyclelab\nfrom cocyclelab import experiments\n"
              "experiments.load_experiment_config(sys.argv[1], sys.argv[2])\n")

# The layer each workload is chosen to stress; the traced run reports whether
# it takes at least half of the op time.
DOMINANT = {
    "spectrum": "lyapunov.estimate_spectrum.s_pct",
    "sweep": "lyapunov.estimate_top_exponent.s_pct",
    "weak-d2": "holonomy.oseledets_directions.s_pct",
    "twist-d4": "certify.log_integrability.s_pct",
}

END_TO_END = [("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def _span(name, field):
    return ("span", name, field)


# Per-layer metrics: (name, unit, source).  ``count`` sources are summed over
# the first traced op of each input; the others are medians over traced ops.
PER_LAYER = [
    ("setup.import_s", "s", ("import", "cocyclelab")),
    ("setup.import_scipy.s_pct", "%", ("import", "scipy")),
    ("experiments.load_experiment_config.s", "s",
     _span("experiments.load_experiment_config", "s")),
    ("fileio.load_cocycle.s", "s", _span("fileio.load_cocycle", "s")),
    ("cocycle.TrigMatrixMap.calls", "count", _span("cocycle.TrigMatrixMap", "calls")),
    ("cocycle.TrigMatrixMap.s", "s", _span("cocycle.TrigMatrixMap", "s")),
    ("cocycle.eval_many.calls", "count", _span("cocycle.eval_many", "calls")),
    ("cocycle.eval_many.points", "count", ("counter", "cocycle.eval_many.points")),
    ("cocycle.eval_many.s", "s", _span("cocycle.eval_many", "s")),
    ("lyapunov.estimate_spectrum.calls", "count",
     _span("lyapunov.estimate_spectrum", "calls")),
    ("lyapunov.estimate_spectrum.s_pct", "%", _span("lyapunov.estimate_spectrum", "s%")),
    ("lyapunov.estimate_spectrum.self_s_pct", "%",
     _span("lyapunov.estimate_spectrum", "self_s%")),
    ("lyapunov.estimate_top_exponent.calls", "count",
     _span("lyapunov.estimate_top_exponent", "calls")),
    ("lyapunov.estimate_top_exponent.s_pct", "%",
     _span("lyapunov.estimate_top_exponent", "s%")),
    ("lyapunov.estimate_top_exponent.self_s_pct", "%",
     _span("lyapunov.estimate_top_exponent", "self_s%")),
    ("lyapunov.steps", "count", ("counter", "lyapunov.steps")),
    ("lyapunov.qr.calls", "count", ("counter", "lyapunov.qr.calls")),
    ("lyapunov.diagonal_spectrum.s_pct", "%", _span("lyapunov.diagonal_spectrum", "s%")),
    ("circle.base_orbit.calls", "count", _span("circle.base_orbit", "calls")),
    ("circle.base_orbit.s_pct", "%", _span("circle.base_orbit", "s%")),
    ("holonomy.oseledets_directions.calls", "count",
     _span("holonomy.oseledets_directions", "calls")),
    ("holonomy.oseledets_directions.s_pct", "%",
     _span("holonomy.oseledets_directions", "s%")),
    ("holonomy.oseledets_directions.self_s_pct", "%",
     _span("holonomy.oseledets_directions", "self_s%")),
    ("holonomy.oseledets_directions.converged_ratio", "ratio",
     ("ratio", "holonomy.oseledets_directions.converged", "holonomy.oseledets_directions")),
    ("holonomy.closed_form_holonomy_many.calls", "count",
     _span("holonomy.closed_form_holonomy_many", "calls")),
    ("holonomy.closed_form_holonomy_many.points", "count",
     ("counter", "holonomy.closed_form_holonomy_many.points")),
    ("holonomy.closed_form_holonomy_many.s_pct", "%",
     _span("holonomy.closed_form_holonomy_many", "s%")),
    ("holonomy.projective_distance.calls", "count",
     ("counter", "holonomy.projective_distance.calls")),
    ("certify.weakly_pinching.s_pct", "%", _span("certify.weakly_pinching", "s%")),
    ("certify.weakly_twisting.self_s_pct", "%", _span("certify.weakly_twisting", "self_s%")),
    ("certify.pinching_d.s_pct", "%", _span("certify.pinching_d", "s%")),
    ("certify.twisting_d.s_pct", "%", _span("certify.twisting_d", "s%")),
    ("certify.twisting_d.self_s_pct", "%", _span("certify.twisting_d", "self_s%")),
    ("certify.log_integrability.calls", "count", _span("certify.log_integrability", "calls")),
    ("certify.log_integrability.s_pct", "%", _span("certify.log_integrability", "s%")),
    ("certify.log_integrability.self_s_pct", "%",
     _span("certify.log_integrability", "self_s%")),
    ("certify.minor_fn.calls", "count", ("counter", "certify.minor_fn.calls")),
    ("certify.minor_fn.scalar_calls", "count", ("counter", "certify.minor_fn.scalar_calls")),
    ("certify.root_refine.calls", "count", _span("certify.root_refine", "calls")),
    ("certify.root_refine.s_pct", "%", _span("certify.root_refine", "s%")),
    ("certify.zeros", "count", ("counter", "certify.zeros")),
    ("experiments.cmd.s", "s", _span("experiments.cmd", "s")),
    ("tables.emit.s", "s", _span("tables.emit", "s")),
    ("certify.write_json.s_pct", "%", _span("certify.write_json", "s%")),
    ("trace.overhead_s", "s", ("overhead",)),
]


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed op)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def _run_child(cmd, timeout):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} did not end within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc


def setup_probe(config, kind, importtime=False):
    """Seconds from spawning a fresh interpreter to its exit after set-up."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += ["-c", SETUP_CODE, config, kind]
    start = time.perf_counter()
    proc = _run_child(cmd, 120.0)
    return time.perf_counter() - start, proc.stderr


def import_times(stderr):
    """(cocyclelab, scipy) cumulative import seconds from ``-X importtime``.

    The scipy figure sums the outermost scipy modules, that is those not
    imported by another scipy module.
    """
    pending = []
    parent = {}
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        level = len(name) - len(name.lstrip())
        entry = (len(entries), name.strip(), int(cum) * 1e-6)
        entries.append(entry)
        while pending and pending[-1][0] > level:
            parent[pending.pop()[1][0]] = entry[1]
        pending.append((level, entry))
    own = sum(cum for _, name, cum in entries if name == "cocyclelab")
    scipy = sum(cum for i, name, cum in entries
                if name.split(".")[0] == "scipy"
                and parent.get(i, "").split(".")[0] != "scipy")
    return own, scipy


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _stat(values, unit):
    p25, p75 = _quartiles(values)
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "p25": p25, "p75": p75, "min": min(values), "max": max(values)}


def machine_and_code(environment):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return dict(environment, nproc=os.cpu_count(), cpu=cpu,
                platform=platform.platform(), git_sha=_git_sha(),
                src_sha256=digest.hexdigest())


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _layer_metrics(ops, spans, import_samples):
    """Per-layer metric values (with sample counts) from a traced job."""
    by_op = {}
    for s in spans:
        by_op.setdefault(s[OP], []).append(s)
    traced = [op for op in ops if op["traced"] and "error" not in op]
    first_pass = {}
    for op in traced:
        first_pass.setdefault(op["input"], op)
    summaries = {op["op"]: summarize_op(by_op.get(op["op"], [])) for op in traced}

    def span_field(op, name, field):
        return summaries[op["op"]].get(name, {}).get(field, 0)

    untraced = [op["seconds"] for op in ops if not op["traced"] and "error" not in op]
    out = {}
    for name, unit, source in PER_LAYER:
        kind = source[0]
        if unit == "count":
            if kind == "span":
                values = [span_field(op, source[1], "calls") for op in first_pass.values()]
            else:
                values = [op["counts"].get(source[1], 0) for op in first_pass.values()]
            out[name] = {"value": int(sum(values)), "unit": unit, "n": len(values)}
        elif kind == "ratio":
            num = sum(op["counts"].get(source[1], 0) for op in first_pass.values())
            den = sum(span_field(op, source[2], "calls") for op in first_pass.values())
            out[name] = {"value": num / den if den else 0.0, "unit": unit,
                         "n": len(first_pass)}
        elif kind == "import":
            values = [own if source[1] == "cocyclelab" else 100.0 * scipy / own
                      for own, scipy in import_samples]
            out[name] = _stat(values, unit)
        elif kind == "overhead":
            value = (statistics.median(op["seconds"] for op in traced)
                     - statistics.median(untraced))
            out[name] = {"value": value, "unit": unit,
                         "n": f"{len(traced)} traced, {len(untraced)} untraced"}
        elif source[2].endswith("%"):
            field = source[2][:-1]
            values = [100.0 * span_field(op, source[1], field)
                      / span_field(op, "experiments.cmd", "s") for op in traced]
            out[name] = _stat(values, unit)
        else:
            out[name] = _stat([span_field(op, source[1], source[2]) for op in traced], unit)
    return out


def run_workload(workload, seed, seconds, trace, tiny=False):
    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        inputs = gen.write_pool(workload, seed, work / "inputs", tiny=tiny)
        kind = gen.KINDS[workload]
        configs = [str(Path(rec["dir"]) / "config.json") for rec in inputs]

        # set-up: one untimed probe fills the bytecode and file caches
        setup_probe(configs[0], kind)
        setup_samples = []
        import_samples = []
        n_probes = IMPORTTIME_SAMPLES if trace else SETUP_SAMPLES
        for i in range(n_probes):
            seconds_i, stderr = setup_probe(configs[i % len(configs)], kind,
                                            importtime=trace)
            setup_samples.append(seconds_i)
            if trace:
                import_samples.append(import_times(stderr))

        job = {
            "src": str(SRC), "kind": kind, "inputs": configs, "trace": trace,
            "budget_s": max(0.0, seconds - (time.perf_counter() - started)),
            "min_ops": 2 * len(inputs) if trace else len(inputs) + 1,
            "out_dir": str(work / "ops"),
            "spans_path": str(OUT / f"{tag}.spans.json"),
        }
        (work / "job.json").write_text(json.dumps(job))
        _run_child([sys.executable, str(BENCH / "worker.py"), str(work / "job.json"),
                    str(work / "result.json")],
                   CHILD_TIMEOUT_S - (time.perf_counter() - started))
        result = json.loads((work / "result.json").read_text())
        ops = result["ops"]

        checker = Checker(workload, inputs)
        failures = {}
        for op in ops:
            problems = checker.check(op)
            if problems:
                failures[op["op"]] = problems
        # an op that fails its output check still did the work and is timed
        ok_times = [op["seconds"] for op in ops if "seconds" in op and not op["traced"]]
        if not ok_times or (trace and not any("seconds" in op for op in ops
                                              if op["traced"])):
            raise BenchError(f"every op raised: {failures}")

        report = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "attempted": len(ops), "failed": len(failures),
            "fail_ratio": len(failures) / len(ops),
            "failures": failures,
            "ops": [{k: op[k] for k in ("op", "input", "traced", "seconds", "error", "counts")
                     if k in op} for op in ops],
            "digests": checker.digests,
            "machine": machine_and_code(result["environment"]),
        }
        if trace:
            spans = json.loads(Path(job["spans_path"]).read_text())["spans"]
            metrics = _layer_metrics(ops, spans, import_samples)
            report["absent"] = result["absent"]
            share = metrics[DOMINANT[workload]]["value"]
            report["dominant_layer"] = {
                "metric": DOMINANT[workload], "share_pct": share,
                "holds": share >= 50.0,
            }
        else:
            metrics = {
                "op_s": _stat(ok_times, "s"),
                "setup_s": _stat(setup_samples, "s"),
                "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB",
                                "n": 1},
            }
            steps = gen.steps_per_op(workload, inputs[0]["config"])
            if steps:
                report["steps_per_s"] = steps / metrics["op_s"]["value"]
        report["metrics"] = metrics
        report["wall_s"] = time.perf_counter() - started
        (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(report):
    err = sys.stderr
    print(f"== {report['workload']} seed {report['seed']} trace {int(report['trace'])}: "
          f"{report['attempted']} ops, {report['failed']} failed "
          f"(fail_ratio {report['fail_ratio']:.3f}), {report['wall_s']:.1f} s", file=err)
    for name, m in report["metrics"].items():
        spread = f"  p25 {m['p25']:.6g}  p75 {m['p75']:.6g}" if "p25" in m else ""
        value = f"{m['value']:>14d}" if isinstance(m["value"], int) else f"{m['value']:>14.6g}"
        print(f"  {name:48s} {value} {m['unit']:6s} n={m['n']}{spread}", file=err)
    if "steps_per_s" in report:
        print(f"  {'steps_per_s':48s} {report['steps_per_s']:>14.6g} 1/s", file=err)
    if report.get("dominant_layer"):
        d = report["dominant_layer"]
        print(f"  dominant layer {d['metric']}: {d['share_pct']:.1f}% of op time "
              f"({'holds' if d['holds'] else 'DOES NOT hold'})", file=err)
    for name in report.get("absent", []):
        print(f"  absent (reads 0): {name}", file=err)
    for op, problems in report["failures"].items():
        print(f"  op {op} failed: {'; '.join(problems)}", file=err)
    m = report["machine"]
    print(f"  machine: nproc {m['nproc']}, {m['cpu']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, {m['blas']} {m['blas_threads']}; "
          f"git {m['git_sha']}, src {m['src_sha256'][:12]}", file=err)


def result_line(report):
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in report["metrics"].items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.KINDS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # end like an interrupt, so that a running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "cocyclelab" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    workloads = list(gen.KINDS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        try:
            report = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print_report(report)
        print(result_line(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
