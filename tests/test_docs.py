"""The README's commands, chain step names and train settings match the code."""

import dataclasses
import enum
import json
import re
import shlex
from pathlib import Path

import pytest

from xmodal.cli import _BINS, MAX_RANGE, build_parser
from xmodal.codecsim import _STEP_NAMES, _STEP_TYPES, MAX_JITTER, MAX_SIDE, MAX_SIGMA
from xmodal.forensics import ZERO_EPS
from xmodal.trainer import MAX_WIDTH, TrainConfig, config_key

from test_kernel_identity import RAPSD_RTOL

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _paragraph(opening: str) -> str:
    """The README paragraph that begins with ``opening``, joined onto one line."""
    start = README.index("\n" + opening) + 1
    end = README.find("\n\n", start)
    return " ".join(README[start : end if end != -1 else None].split())


def test_step_names_match_chain_steps():
    names = re.findall(r"`(\w+)`", _paragraph("Step names:"))
    assert names == list(_STEP_NAMES.values())


def test_step_keys_and_types_match_step_fields():
    kinds = {"integer": "int", "number": "float", "pair": "tuple[float, float]"}
    documented = {}
    for item in re.split(r"(?:^| )- (?=`)", _paragraph("- `motion_blur`:"))[1:]:
        name, rest = re.match(r"`(\w+)`:(.*)", item).groups()
        keys, pending = {}, []
        for key, kind in re.findall(r"`(\w+)`|\b(integer|number|pair)\b", rest):
            if key:
                pending.append(key)
            else:
                keys.update((k, kinds[kind]) for k in pending)
                pending = []
        documented[name] = keys
    fields = {
        name: {f.name: f.type for f in dataclasses.fields(step_type)}
        for name, step_type in _STEP_TYPES.items()
    }
    assert documented == fields


def test_size_bounds_match_the_budgets():
    steps = _paragraph("- `motion_blur`:")
    assert f"`length` integer in [1, {MAX_SIDE}]" in steps
    assert f"`sigma` number in [0, {MAX_SIGMA}]" in steps
    assert f"`shorter_side` integer in [1, {MAX_SIDE}]" in steps
    assert f"pair `[lo, hi]` with 0 ≤ lo ≤ hi ≤ {MAX_JITTER:g}," in steps
    assert f"A `color_jitter` factor of {MAX_JITTER:g} already" in _paragraph("The upper bounds")
    assert f"`hidden_dim`/`feature_dim` outside [1, {MAX_WIDTH}]" in " ".join(README.split())


def test_analyze_bounds_match_the_constants():
    bounds = _paragraph("- `--bins`:")
    (_, dct_least, dct_most), (_, rapsd_least, rapsd_most) = _BINS["dct"], _BINS["rapsd"]
    assert f"`dct` in [{dct_least}, {dct_most}]" in bounds
    assert f"`rapsd` in [{rapsd_least}, {rapsd_most}]" in bounds
    assert f"`--range`: above {ZERO_EPS:g} and at most {MAX_RANGE:g}," in bounds
    assert f"`--sigma`: above 0 and at most {MAX_SIGMA}." in bounds
    assert f"`--size`: in [8, {MAX_SIDE}]." in bounds
    assert f"within a relative {RAPSD_RTOL:g} per bin" in _paragraph("`rapsd` transforms")


def test_train_keys_and_defaults_match_train_config():
    documented = {
        key: json.loads(value)
        for key, value in re.findall(
            r'`(\w+)` ("[^"]*"|-?\d+(?:\.\d+)?(?:e-?\d+)?)',
            _paragraph("`train` keys and defaults:"),
        )
    }
    fields = {
        config_key(f.name): (
            f.default.value if isinstance(f.default, enum.Enum) else f.default
        )
        for f in dataclasses.fields(TrainConfig)
    }
    assert documented == fields


def _readme_commands() -> list[str]:
    """Every ``xmodal ...`` command in the README's shell blocks, one line each."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README, flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("xmodal "):
                commands.append(line)
    return commands


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_parses(command):
    # once with the bracketed options and once without them
    for line in (re.sub(r"[\[\]]", "", command), re.sub(r"\[[^\]]*\]", "", command)):
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
