"""The public surface: the exported names and the README quick start."""

import inspect
import re
from pathlib import Path

import cocyclelab as cl

README = Path(__file__).resolve().parents[1] / "README.md"


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
