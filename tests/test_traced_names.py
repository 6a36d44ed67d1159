"""The benchmark's tracer can still find every function it wraps.

`perfbench/spans.py` `install` looks up each (layer, attr) of its TRACED
tuple on `instaqc.<layer>`, and a class through its `__post_init__`, so a
rename or deletion in `src/` breaks `perfbench/run.py --trace 1`.  The tuple
is read from that file as written, without importing the harness.
"""
import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced() -> tuple:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {SPANS}")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced, "TRACED is empty"
    missing = []
    for layer, attr in traced:
        value = getattr(importlib.import_module(f"instaqc.{layer}"), attr, None)
        if value is None or (isinstance(value, type)
                             and "__post_init__" not in value.__dict__):
            missing.append(f"{layer}.{attr}")
    assert not missing, f"perfbench TRACED names that no longer resolve: {missing}"
