"""Every function the benchmark's tracer wraps still exists in the package, and
takes the arguments the tracer reads where the tracer reads them."""

import ast
import importlib
import inspect
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


def core_argument_reads() -> set[tuple[str, int, str]]:
    """``(function, position, name)`` of each argument that the tracer's ``core``
    captures read: each capture calls ``arg(args, kwargs, position, name)``."""
    reads = set()
    for node in ast.walk(ast.parse(TRACER.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Dict):
            continue
        for key, value in zip(node.keys, node.values):
            target = getattr(key, "value", None)
            if not (isinstance(target, str) and target.startswith("core.")):
                continue
            for call in ast.walk(value):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "arg":
                    position, name = (ast.literal_eval(a) for a in call.args[2:4])
                    reads.add((target.removeprefix("core."), position, name))
    return reads


def test_core_captures_read_the_arguments_they_name():
    reads = core_argument_reads()
    assert reads == {("load_image", 0, "path"), ("parse_manifest", 0, "path"),
                     ("save_image", 1, "path"), ("write_manifest", 1, "path")}
    core = importlib.import_module("xmodal.core")
    for name, position, key in reads:
        assert list(inspect.signature(getattr(core, name)).parameters)[position] == key, name
