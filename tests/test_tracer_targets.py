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


# The cmsupcon captures are left out: they still read the old ``(batch, cfg)``
# call of contrastive_loss and contrastive_grad, which now take arrays (the
# FOUND line on ``perfbench/tracer.py`` ``_rows_of_batch`` in CHANGES.md).
UNCHECKED = ("cmsupcon.contrastive_loss", "cmsupcon.contrastive_grad")


def capture_argument_reads() -> set[tuple[str, int, str]]:
    """``(target, position, name)`` of each argument that the tracer's captures
    read: each calls ``arg(args, kwargs, position, name)``, itself or in a helper
    it names, such as ``image_shape(...)`` or ``dct_images``."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    helpers = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    reads = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Dict):
            continue
        for key, value in zip(node.keys, node.values):
            target = getattr(key, "value", None)
            if not isinstance(target, str) or target in UNCHECKED:
                continue
            named = [helpers[n.id] for n in ast.walk(value)
                     if isinstance(n, ast.Name) and n.id in helpers]
            for body in (value, *named):
                for call in ast.walk(body):
                    if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "arg":
                        position, name = (ast.literal_eval(a) for a in call.args[2:4])
                        reads.add((target, position, name))
    return reads


def test_core_captures_read_the_arguments_they_name():
    reads = capture_argument_reads()
    assert reads == {
        ("core.load_image", 0, "path"), ("core.parse_manifest", 0, "path"),
        ("core.save_image", 1, "path"), ("core.write_manifest", 1, "path"),
        ("codecsim.jpeg_simulate", 0, "img"), ("codecsim.video_codec_simulate", 0, "img"),
        ("forensics.dct_ac_histogram", 0, "images"), ("trainer.contrastive_term", 0, "z"),
    }
    for target, position, key in reads:
        module, name = target.split(".")
        function = getattr(importlib.import_module(f"xmodal.{module}"), name)
        assert list(inspect.signature(function).parameters)[position] == key, target
