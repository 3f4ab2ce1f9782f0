"""Every function the benchmark's tracer wraps still exists in the package."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_targets() -> tuple[tuple[str, str], ...]:
    """The ``TARGETS`` tuple of the tracer, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TARGETS tuple")


def test_every_traced_name_resolves():
    missing = []
    for module, name in traced_targets():
        obj = importlib.import_module(f"xmodal.{module}")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{name}")
    assert traced_targets() and not missing
