"""The README's commands, chain step names, field tables and train settings match the code,
and every module name the docs cite exists."""

import importlib
import json
import re
import shlex
import tokenize
from pathlib import Path

import pytest

import xmodal
from xmodal.cli import (
    BINS,
    CONFIG_FIELDS,
    DATA_FIELDS,
    FEATURE_FIELDS,
    FLAG_FIELDS,
    MAX_RANGE,
    MAX_THREADS,
    _history_csv,
    build_parser,
)
from xmodal.cmsupcon import VARIANTS
from xmodal.codecsim import JPEG_CHANNELS, MAX_JITTER, MAX_SIGMA, STEP_FIELDS
from xmodal.core import (AGGREGATIONS, LABELS, MANIFEST_FIELDS, MAX_SIDE, MODALITIES, PNM_DIGITS,
                         WINDOWS, describe)
from xmodal.forensics import ZERO_EPS
from xmodal.pixelops import COLOR_RANGES
from xmodal.trainer import (
    FEATURE_LAYERS,
    MAX_SCALE,
    MAX_SPLIT,
    MAX_WIDTH,
    PARAM_FIELDS,
    PARAMS_FIELDS,
    SYNTHETIC_FIELDS,
    TRAIN_FIELDS,
    train_config,
)

from test_kernel_identity import RAPSD_RTOL

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
FLAT_README = " ".join(README.split())
EXAMPLE = re.search(r"```python\n(.*?)```", README, flags=re.DOTALL).group(1)


def _paragraph(opening: str) -> str:
    """The README paragraph that begins with ``opening``, joined onto one line."""
    start = README.index("\n" + opening) + 1
    end = README.find("\n\n", start)
    return " ".join(README[start : end if end != -1 else None].split())


def test_step_names_match_chain_steps():
    names = re.findall(r"`(\w+)`", _paragraph("Step names:"))
    assert names == list(STEP_FIELDS)


def _item(field) -> str:
    return f"`{field.key}`{' (required)' if field.required else ''}: {describe(field)}"


def test_step_keys_and_types_match_step_fields():
    for name, table in STEP_FIELDS.items():
        keys = "; ".join(_item(field) for field in table) or "no keys"
        assert f"- `{name}`: {keys}." in FLAT_README


@pytest.mark.parametrize("table", [
    MANIFEST_FIELDS, CONFIG_FIELDS, TRAIN_FIELDS, DATA_FIELDS, SYNTHETIC_FIELDS,
    PARAMS_FIELDS, PARAM_FIELDS, FEATURE_FIELDS,
], ids=["manifest", "config", "train", "data", "synthetic", "params", "param", "feature"])
def test_input_tables_match_the_readme(table):
    listing = " ".join(f"- {_item(field)}." for field in table)
    assert listing in FLAT_README


def test_absent_step_keys_match_their_defaults():
    defaults = {field.key: field.default for table in STEP_FIELDS.values() for field in table
                if not field.required}
    jitter = ("brightness", "contrast", "saturation")
    pairs = {json.dumps(list(defaults.pop(key))) for key in jitter}
    assert set(defaults) == {"angle_deg", "deadzone"} and len(pairs) == 1
    assert (f"an absent `angle_deg` is {defaults['angle_deg']}, `deadzone` "
            f"{defaults['deadzone']} and each `color_jitter` pair `{pairs.pop()}`.") in FLAT_README


def test_library_example_imports_public_names():
    names = re.search(r"from xmodal import \((.*?)\)", EXAMPLE, flags=re.DOTALL).group(1)
    imported = [name.strip() for name in names.split(",") if name.strip()]
    assert "chain_steps" in imported and set(imported) <= set(xmodal.__all__)


def test_library_example_runs():
    exec(compile(EXAMPLE, "README.md", "exec"), {})


def test_choice_values_match_the_library():
    listed = re.findall(r'- `(\w+)` \([^)]*\): ((?:"[\w-]+"(?:, )?)+)',
                        _paragraph("Choice arguments take"))
    assert {key: tuple(re.findall(r'"([\w-]+)"', values)) for key, values in listed} == {
        "label": LABELS, "modality": MODALITIES, "variant": VARIANTS,
        "feature_layer": FEATURE_LAYERS, "window": WINDOWS, "color_range": COLOR_RANGES,
        "headline": AGGREGATIONS, "channel": JPEG_CHANNELS}


def test_size_bounds_match_the_budgets():
    assert f"`length` (required): an integer in [1, {MAX_SIDE}]" in FLAT_README
    assert f"`sigma` (required): a finite number in [0, {MAX_SIGMA}]" in FLAT_README
    assert f"`shorter_side` (required): an integer in [1, {MAX_SIDE}]" in FLAT_README
    assert f"0 <= a <= b <= {MAX_JITTER:g};" in FLAT_README
    assert f"A `color_jitter` factor of {MAX_JITTER:g} already" in _paragraph("The upper bounds")
    assert f"`hidden_dim` and `feature_dim` are at most {MAX_WIDTH}" in FLAT_README
    budget = _paragraph("Each split's counts sum to")
    assert f"sum to 1 to {MAX_SPLIT} samples" in budget and f"at most {MAX_SPLIT} records" in budget
    assert f"The 10^{len(str(MAX_SCALE)) - 1} bound" in budget and MAX_SCALE == 10**6
    assert f"longer than {PNM_DIGITS} digits" in FLAT_README


def test_exit_codes_are_documented():
    codes = _paragraph("Exit codes:")
    assert "2 is an `InputError`" in codes and "3 is a `NumericalError`" in codes
    assert "Any other exception is a bug: it exits 1 with a traceback." in codes


def _option(field) -> str:
    default = "" if field.default is None else f" (default {json.dumps(field.default)})"
    return f"`--{field.key}`{' (required)' if field.required else ''}{default}: {describe(field)}"


@pytest.mark.parametrize("command", sorted(FLAG_FIELDS))
def test_flag_tables_match_the_readme(command):
    listing = " ".join(f"- {_option(field)}." for field in FLAG_FIELDS[command])
    assert listing in FLAT_README


def test_bins_rows_match_the_readme():
    listing = " ".join(f"- `--bins` with `{kind}` (default {default}): {describe(row)}."
                       for kind, (default, row) in BINS.items())
    assert listing in FLAT_README


def test_analyze_bounds_match_the_constants():
    rows = {field.key: field for field in FLAG_FIELDS["analyze"]}
    bounds = {key: (rows[key].ends[0], rows[key].lo, rows[key].hi, rows[key].ends[1])
              for key in ("threads", "range", "sigma", "size")}
    assert bounds == {"threads": ("[", 1, MAX_THREADS, "]"),
                      "range": ("(", ZERO_EPS, MAX_RANGE, "]"),
                      "sigma": ("(", 0, MAX_SIGMA, "]"), "size": ("[", 8, MAX_SIDE, "]")}
    assert {kind: (row.lo, row.hi) for kind, (_, row) in BINS.items()} == {
        "dct": (1, 1 << 16), "rapsd": (3, MAX_SIDE)}
    assert f"`--threads` stops at {MAX_THREADS}" in FLAT_README
    assert f"within a relative {RAPSD_RTOL:g} per bin" in _paragraph("`rapsd` transforms")


def test_train_keys_and_defaults_match_train_config():
    documented = {
        key: json.loads(value)
        for key, value in re.findall(
            r'`(\w+)` ("[^"]*"|-?\d+(?:\.\d+)?(?:e-?\d+)?)',
            _paragraph("`train` keys and defaults:"),
        )
    }
    assert documented == dict(train_config({}))


def test_synthetic_keys_and_defaults_match_synthetic_fields():
    listed = ", ".join(f"`{field.key}` {json.dumps(field.default)}" for field in SYNTHETIC_FIELDS)
    assert f"`data.synthetic` keys and defaults: {listed}." in FLAT_README


def test_history_columns_match_history_csv():
    listed = _paragraph("`history.csv` has one row per epoch").split(" The ")[0]
    assert re.findall(r"`(\w+)`", listed) == _history_csv(()).strip().split(",")


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


def _doc_texts() -> list[tuple[str, str]]:
    """(file name, text) of every docstring, string and comment in the package's
    modules, and of the README."""
    texts = []
    for path in sorted(Path(xmodal.__file__).parent.glob("*.py")):
        with path.open("rb") as fh:
            texts += [(path.name, token.string) for token in tokenize.tokenize(fh.readline)
                      if token.type in (tokenize.STRING, tokenize.COMMENT)]
    return texts + [("README.md", README)]


def test_dotted_names_in_the_docs_resolve():
    # `core.iter_samples`, `trainer.ToyModel.from_params`: a module of the package
    # and a name in it; `cli.py` names a file
    modules = (*xmodal._EXPORTS, "errors", "cli")
    pattern = re.compile(rf"\b({'|'.join(modules)})\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")
    cited, stale = 0, []
    for where, text in _doc_texts():
        for match in pattern.finditer(text):
            module, dotted = match.groups()
            if dotted == "py":
                continue
            cited += 1
            owner = importlib.import_module(f"xmodal.{module}")
            for part in dotted.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                stale.append(f"{where}: {match.group(0)}")
    assert cited > 30 and not stale
