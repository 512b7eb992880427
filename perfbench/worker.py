"""Child process of the benchmark: runs one workload's ops and times them.

Usage: ``python3 perfbench/worker.py JOB.json RESULT.json``

Each op makes the calls ``cocyclelab.cli.main`` makes, in the same order:
``experiments.load_experiment_config`` (set-up, untimed), then
``experiments.COMMANDS[kind]``, ``ResultTable.emit`` and
``Certificate.write_json`` into the op's own output directory.  The op
time covers everything after the config is loaded, output files included.

Ops run until the job's budget is spent and at least ``min_ops`` are done.
Op i uses input ``i % pool`` (untraced job) or, in a traced job, alternates
traced and untraced ops on input ``(i // 2) % pool`` so that tracing
overhead is measured against the same inputs, in the same process.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path


def _environment():
    import numpy as np
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_op(experiments, kind, config_path, out_path, tracer=None):
    """One CLI-equivalent op; returns the op seconds and the written paths.

    With a tracer the op (not its config load) is the root span
    ``experiments.cmd``.
    """
    config = experiments.load_experiment_config(config_path, kind, out=str(out_path))
    root = tracer.begin("experiments.cmd") if tracer is not None else None
    start = time.perf_counter()
    try:
        output = experiments.COMMANDS[kind](config)
        text = output.table.emit()
        out = Path(config.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        written = [out]
        for cert in output.certificates:
            path = out.with_suffix(f".{cert.kind.lower()}.json")
            cert.write_json(path)
            written.append(path)
        return time.perf_counter() - start, [str(p) for p in written]
    finally:
        if root is not None:
            tracer.end(root)


def main(job_path, result_path):
    job = json.loads(Path(job_path).read_text())
    import cocyclelab
    from cocyclelab import experiments

    src = Path(job["src"]).resolve()
    if src not in Path(cocyclelab.__file__).resolve().parents:
        raise SystemExit(f"imported cocyclelab from {cocyclelab.__file__}, not {src}")

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()

    kind = job["kind"]
    inputs = job["inputs"]
    pool = len(inputs)
    deadline = time.monotonic() + job["budget_s"]
    ops = []
    i = 0
    while i < job["min_ops"] or time.monotonic() < deadline:
        traced = tracer is not None and i % 2 == 0
        index = (i // 2 if tracer is not None else i) % pool
        out_path = Path(job["out_dir"]) / f"op{i}" / "out.csv"
        record = {"op": i, "input": index, "traced": traced}
        if traced:
            tracer.op = i
            tracer.install()
        try:
            record["seconds"], record["outputs"] = run_op(
                experiments, kind, inputs[index], out_path,
                tracer if traced else None)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["traceback"] = traceback.format_exc()
        finally:
            if traced:
                tracer.uninstall()
                record["counts"] = tracer.take_counts()
        ops.append(record)
        i += 1

    result = {
        "ops": ops,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": _environment(),
    }
    if tracer is not None:
        result["absent"] = sorted(set(tracer.absent))
        Path(job["spans_path"]).write_text(json.dumps(tracer.dump()))
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
