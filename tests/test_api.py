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
