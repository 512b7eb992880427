"""The public surface: the exported names and the README quick start."""

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import cocyclelab as cl

README = Path(__file__).resolve().parents[1] / "README.md"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_all_names_resolve_once():
    assert len(cl.__all__) == len(set(cl.__all__))
    missing = [name for name in cl.__all__ if not hasattr(cl, name)]
    assert missing == []


def test_public_classes_and_functions_have_docstrings():
    # a dataclass without one gets its signature as __doc__, which counts
    undocumented = [name for name in cl.__all__
                    if (inspect.isclass(getattr(cl, name))
                        or inspect.isfunction(getattr(cl, name)))
                    and not (getattr(cl, name).__doc__ or "").strip()]
    assert undocumented == []


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "WEAK_PINCH" in out and "WEAK_TWIST" in out


def test_readme_documents_the_config_keys():
    # every knob the loader reads is named outside the retired-fields
    # paragraph, and every retired key only inside it
    from cocyclelab import experiments

    paragraphs = README.read_text().split("\n\n")
    retired = [p for p in paragraphs if "Fields the loader does not read" in p]
    assert len(retired) == 1
    live = "\n\n".join(p for p in paragraphs if p is not retired[0])
    for name in dict(experiments._INT_KNOBS, **experiments._FLOAT_KNOBS):
        assert f"`{name}`" in live, name
        assert f"`{name}`" not in retired[0], name
    assert set(experiments.RETIRED_KEYS) >= {
        "parallel", "sep_tol", "frac_threshold", "direction_tol", "rel_gap", "zero_tol",
        "qr_period", "n_pullback", "grid_n", "n_samples"}
    for name in experiments.RETIRED_KEYS:
        assert f"`{name}`" in retired[0], name
        assert f"`{name}`" not in live, name


def _readme_spans():
    return re.findall(r"`([^`\n]+)`", README.read_text())


def test_readme_module_names_resolve():
    # `module.name` of a cocyclelab module, or `cocyclelab.module`
    checked = []
    for span in _readme_spans():
        parts = span.split(".")
        if len(parts) < 2 or not all(part.isidentifier() for part in parts):
            continue
        if parts[0] == "cocyclelab":
            importlib.import_module(span)
        elif importlib.util.find_spec(f"cocyclelab.{parts[0]}") is not None:
            target = importlib.import_module(f"cocyclelab.{parts[0]}")
            for part in parts[1:]:
                assert hasattr(target, part), span
                target = getattr(target, part)
        else:
            continue
        checked.append(span)
    assert len(set(checked)) >= 16


def _public_callables(name):
    """The public functions named ``name`` and the methods of that name on
    public classes."""
    found = getattr(cl, name, None) if name in cl.__all__ else None
    if inspect.isfunction(found):
        return [found]
    return [getattr(cls, name) for cls in map(cl.__dict__.get, cl.__all__)
            if inspect.isclass(cls) and inspect.isfunction(getattr(cls, name, None))]


def _parameter_names(func):
    names = []
    for param in inspect.signature(func).parameters.values():
        if param.name == "self":
            continue
        if param.kind is param.KEYWORD_ONLY and "*" not in names:
            names.append("*")
        names.append(param.name)
    return names


def test_readme_call_signatures_match_the_code():
    # `name(a, b=..., *, c)` of a public function or method lists exactly
    # its parameters
    checked = set()
    for span in _readme_spans():
        match = re.fullmatch(r"([A-Za-z_]\w*)\(([^()]*)\)", span)
        if match is None:
            continue
        funcs = _public_callables(match.group(1))
        written = [arg.split("=")[0].strip() for arg in match.group(2).split(",")]
        for func in funcs:
            assert written == _parameter_names(func), span
            checked.add(match.group(1))
    assert {"eval", "eval_many", "log_integrability"} <= checked


def test_benchmark_tracer_finds_every_target():
    # perfbench/spans.py wraps library names where their callers look them
    # up and reads 0 for a name that is gone, so a rename or deletion here
    # would silently zero a benchmark metric
    sys.path.insert(0, str(PERFBENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()
