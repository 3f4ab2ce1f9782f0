"""A property suite over the input files and the numeric options: documents and
flag values drawn from the field tables.

Every loader reads through ``core.read_json``/``parse_json`` and checks through
``core.check_fields``, so on any document each returns a result or raises
InputError, never anything else. The CLI maps InputError to exit 2 and
NumericalError to exit 3; anything else is a bug that exits 1 with a traceback.
The regression cases for single inputs live in ``test_cli.py``.
"""

import ast
import json
import math
import re
import string
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import xmodal
from xmodal import cli
from xmodal.cli import DATA_FIELDS, FEATURE_FIELDS, load_train_config, main
from xmodal.cmsupcon import VARIANTS, contrastive_grad, contrastive_loss
from xmodal.codecsim import (
    JPEG_CHANNELS,
    STEP_FIELDS,
    chain_steps,
    dct8x8_forward,
    dct8x8_inverse,
    deadzone_quantize_block,
    load_chain,
    quant_table_from_quality,
    video_codec_simulate,
)
from xmodal.core import (
    AGGREGATIONS,
    LABELS,
    MANIFEST_FIELDS,
    MODALITIES,
    WINDOWS,
    Field,
    ScoredPrediction,
    check_fields,
    parse_manifest,
    save_image,
    write_manifest,
)
from xmodal.errors import InputError, NumericalError
from xmodal.forensics import dct_ac_histogram, rapsd
from xmodal.metrics import per_subset_report, select_frame_indices, subset_report
from xmodal.pixelops import (COLOR_RANGES, gaussian_blur, motion_blur, motion_blur_kernel,
                             rgb_to_ycbcr, ycbcr_to_rgb)
from xmodal.trainer import (
    FEATURE_LAYERS,
    PARAM_FIELDS,
    SYNTHETIC_FIELDS,
    TRAIN_FIELDS,
    SyntheticSpec,
    ToyModel,
    backward,
    contrastive_term,
    forward,
    generate_synthetic,
    load_checkpoint,
    mixed_batch_sampler,
    save_checkpoint,
    train_config,
)

from conftest import textured_image
from test_kernel_identity import PIXEL_CALLS

D_IN = 6


def run(capsys, *argv):
    """main's exit code and stderr; the exit code of an argparse error counts too."""
    capsys.readouterr()
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None,
                    suppress_health_check=list(HealthCheck))


def _number(field: Field, integer: bool):
    lo = None if field.lo == -math.inf else field.lo
    hi = None if field.hi == math.inf else field.hi
    if integer:
        # unbounded ends stay near the bound so the loaders' work stays small
        lo, hi = (math.ceil(lo) if lo is not None else -5), (int(hi) if hi is not None else 50)
        if field.ends[0] == "(":
            lo += 1
        return st.integers(lo, hi)
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False,
                     exclude_min=field.ends[0] == "(" and lo is not None,
                     exclude_max=field.ends[1] == ")" and hi is not None)


def valid_value(field: Field):
    if field.kind == "choice":
        return st.sampled_from(field.choices)
    if field.kind == "string":
        return st.text(string.ascii_letters, min_size=1 if field.lo > 0 else 0, max_size=6)
    if field.kind == "object":
        return st.just({})
    if field.kind == "pair":
        return st.lists(_number(field, False), min_size=2, max_size=2).map(sorted)
    element = _number(field, field.kind == "int")
    if field.length is not None:
        size = field.length or 3
        element = st.lists(element, min_size=size, max_size=size)
    return st.one_of(element, st.none()) if field.null else element


def past_bounds(field: Field) -> list:
    """Values one past each finite bound of a number field."""
    if field.kind not in ("int", "number", "pair"):
        return []
    values = []
    for bound, side in ((field.lo, -1), (field.hi, 1)):
        if abs(bound) == math.inf:
            continue
        if field.kind == "int":
            values.append(bound + side)
        elif field.ends[0 if side < 0 else 1] in "()":
            values.append(float(bound))
        else:
            values.append(math.nextafter(float(bound), side * math.inf))
    if field.kind == "pair":
        return [[v, v] for v in values] + [[1.0, 0.5]]
    if field.length is not None:
        return [[v] * (field.length or 1) for v in values]
    return values


WRONG = [True, False, "1", [], {}, None, float("nan"), float("inf"), -float("inf"),
         10**400, -10**400, [1.5], [[1]], ""]


def document(table):
    """A JSON object drawn from ``table``: valid values, then at most one fault."""

    @st.composite
    def build(draw):
        doc = {}
        for field in table:
            if field.required or draw(st.booleans()):
                doc[field.key] = draw(valid_value(field))
        fault = draw(st.sampled_from(["none", "value", "missing", "unknown"]))
        if fault == "value" and table:
            field = draw(st.sampled_from(table))
            doc[field.key] = draw(st.sampled_from(WRONG + past_bounds(field)))
        elif fault == "missing" and doc:
            doc.pop(draw(st.sampled_from(sorted(doc))))
        elif fault == "unknown":
            doc["zz_unknown"] = 1
        return doc

    return build()


def returns_or_input_error(load, *args):
    try:
        return load(*args)
    except InputError as exc:
        assert "\n" not in str(exc)
        return None


@PROPERTY
@given(doc=document(MANIFEST_FIELDS))
def test_manifest_lines(tmp_path_factory, doc):
    tmp = tmp_path_factory.mktemp("m")
    path = tmp / "m.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    records = returns_or_input_error(parse_manifest, path)
    # write_manifest checks a record as parse_manifest checks its line, and writes
    # nothing unless every record passes
    written = tmp / "w.jsonl"
    try:
        write_manifest([doc], written)
        error = None
    except InputError as exc:
        error = str(exc)
    assert (error is None) == (records is not None), error
    if "zz_unknown" in doc:
        assert error == f"{written}: record 0: 'zz_unknown': unknown key"
    assert written.exists() == (error is None)
    if records is not None:
        write_manifest(records, written)
        first = written.read_bytes()
        assert parse_manifest(written) == records
        write_manifest(parse_manifest(written), written)
        assert written.read_bytes() == first


@PROPERTY
@given(name=st.sampled_from(sorted(STEP_FIELDS)), data=st.data())
def test_chain_steps(name, data):
    doc = data.draw(document(STEP_FIELDS[name]))
    returns_or_input_error(chain_steps, {"steps": [{"step": name, **doc}]})


def input_error_text(call, *args, **kwargs):
    """The text of the InputError ``call`` raises, or None when it raises none."""
    try:
        call(*args, **kwargs)
    except InputError as exc:
        assert "\n" not in str(exc)
        return str(exc)
    return None


@PROPERTY
@given(data=st.data())
def test_codec_settings_have_one_checker(data):
    # each setting valid or wrong, as the video_codec row describes them
    settings_ = {field.key: data.draw(st.one_of(valid_value(field),
                                                st.sampled_from(WRONG + past_bounds(field))))
                 for field in STEP_FIELDS["video_codec"]}
    chain_error = input_error_text(chain_steps, {"steps": [{"step": "video_codec", **settings_}]})
    for name, call, arg in (
        ("deadzone_quantize_block", deadzone_quantize_block, np.zeros((8, 8))),
        ("video_codec_simulate", video_codec_simulate, textured_image(seed=0, h=8, w=8)),
    ):
        error = input_error_text(call, arg, **settings_)
        assert (error is None) == (chain_error is None), (name, error, chain_error)
        if error is not None:  # the same words, after each one's prefix
            assert error == f"{name}: " + chain_error.split("'video_codec': ", 1)[1]


# each public blur function, by the chain step whose row it checks
BLUR_CALLS = {
    "motion_blur": (
        ("motion_blur", lambda keys: motion_blur(textured_image(seed=0, h=8, w=8), **keys)),
        ("motion_blur_kernel", lambda keys: motion_blur_kernel(**keys))),
    "gaussian_blur": (
        ("gaussian_blur", lambda keys: gaussian_blur(textured_image(seed=0, h=8, w=8), **keys)),),
}


@pytest.mark.parametrize("step", sorted(BLUR_CALLS))
def test_blur_settings_have_one_checker(step):
    small = {field.key: 3 if field.required else field.default for field in STEP_FIELDS[step]}
    cases = [small] + [{**small, field.key: value} for field in STEP_FIELDS[step]
                       for value in WRONG + past_bounds(field) + [-1]]
    for keys in cases:
        chain_error = input_error_text(chain_steps, {"steps": [{"step": step, **keys}]})
        for name, call in BLUR_CALLS[step]:
            error = input_error_text(call, keys)
            assert (error is None) == (chain_error is None), (name, keys, error, chain_error)
            if error is not None:  # the same words, after each one's prefix
                assert error == f"{name}: " + chain_error.split(f"{step!r}: ", 1)[1]


@PROPERTY
@given(names=st.lists(st.sampled_from(sorted(STEP_FIELDS)), min_size=1, max_size=3),
       data=st.data())
def test_chain_file_and_code_share_one_checker(tmp_path_factory, names, data):
    steps = [{"step": name, **data.draw(document(STEP_FIELDS[name]))} for name in names]
    doc = data.draw(st.sampled_from([{"steps": steps}, {"steps": steps, "zz_unknown": 1},
                                     {"steps": []}, {"steps": steps[0]}, steps]))
    path = tmp_path_factory.mktemp("chain") / "chain.json"
    path.write_text(json.dumps(doc))
    file_error = input_error_text(load_chain, path)
    code_error = input_error_text(chain_steps, doc)
    assert (file_error is None) == (code_error is None), (file_error, code_error)
    if code_error is None:  # the same steps
        assert load_chain(path) == chain_steps(doc)
    else:  # the same words, after the file's path
        assert file_error == f"{path}: {code_error}"


@PROPERTY
@given(train=document(TRAIN_FIELDS), data=document(DATA_FIELDS),
       synthetic=document(SYNTHETIC_FIELDS))
def test_config_files(tmp_path_factory, train, data, synthetic):
    if data.get("synthetic") == {}:
        data["synthetic"] = synthetic
    path = tmp_path_factory.mktemp("c") / "cfg.json"
    path.write_text(json.dumps({"train": train, "data": data}))
    returns_or_input_error(load_train_config, path)


@PROPERTY
@given(doc=document(SYNTHETIC_FIELDS))
def test_synthetic_task_has_one_checker(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("s") / "cfg.json"
    path.write_text(json.dumps({"data": {"synthetic": doc}}))
    config_error = input_error_text(load_train_config, path)
    error = input_error_text(lambda: SyntheticSpec.default(**doc))
    assert (error is None) == (config_error is None), (error, config_error)
    if error is not None:  # the same words, after each one's prefix
        assert config_error == f"{path}: 'data.synthetic." + error.removeprefix(
            "SyntheticSpec.default: '")


@PROPERTY
@given(config=document(TRAIN_FIELDS), entry=document(PARAM_FIELDS),
       name=st.sampled_from(["w1", "b1", "wp", "wc", "bc"]))
def test_checkpoints(tmp_path_factory, config, entry, name):
    path = tmp_path_factory.mktemp("k") / "checkpoint.json"
    save_checkpoint(ToyModel.init(D_IN, 16, 8, np.random.default_rng(0)), train_config({}), path)
    doc = json.loads(path.read_text())
    doc["config"] = config
    doc["params"][name] = entry
    path.write_text(json.dumps(doc))
    returns_or_input_error(load_checkpoint, path)


@PROPERTY
@given(record=document(FEATURE_FIELDS), at=st.integers(0, 3),
       x=st.sampled_from([[0.5] * D_IN, [0.5] * (D_IN - 1), [], None, [float("nan")] * D_IN]))
def test_feature_records(tmp_path_factory, record, at, x):
    records = [{"id": f"r{i}", "x": [0.1 * i] * D_IN, "label": "real", "modality": "image",
                "subset": "s"} for i in range(4)]
    records[at] = dict(record, **({} if x is None else {"x": x}))
    path = tmp_path_factory.mktemp("f") / "f.json"
    path.write_text(json.dumps({"records": records}))
    model = ToyModel.init(D_IN, 16, 8, np.random.default_rng(0))
    evaluate_error = input_error_text(cli._score_feature_records, model, "hidden", records, 2,
                                      path)
    train_error = input_error_text(cli._records_to_dataset, path)
    # train reads the width off record 0; where that is the model's and training's
    # table holds the drawn record too, the one reader names the same record alike
    if len(records[0].get("x", ())) == D_IN and "modality" in records[at]:
        assert train_error == evaluate_error


# The largest float as an integer, and float64's spacing there: an integer
# less than half a spacing past it still converts to it
FLOAT_MAX = int(sys.float_info.max)
TOP_ULP = 2**971


@settings(PROPERTY, max_examples=120)
@given(base=st.sampled_from([FLOAT_MAX, -FLOAT_MAX, 2**63, -2**63]),
       offset=st.one_of(st.integers(-2, 2), st.sampled_from(
           [TOP_ULP // 2 - 1, TOP_ULP // 2, TOP_ULP, -TOP_ULP // 2, -TOP_ULP])),
       at=st.integers(0, 3), position=st.integers(0, D_IN - 1))
def test_bulk_reader_agrees_with_the_row_check_on_large_integers(base, offset, at, position):
    records = [{"id": f"r{i}", "x": [0.1 * i] * D_IN, "label": "real", "subset": "s"}
               for i in range(4)]
    records[at]["x"][position] = base + offset if base > 0 else base - offset
    row = (Field("x", "number", required=True, length=D_IN), *FEATURE_FIELDS)
    row_errors = [input_error_text(check_fields, rec, row,
                                   f"f.json: feature record {i} ('r{i}') ", extra=True)
                  for i, rec in enumerate(records)]
    row_error = next((error for error in row_errors if error is not None), None)
    assert input_error_text(cli._feature_columns, records, FEATURE_FIELDS, D_IN,
                            "f.json") == row_error


@PROPERTY
@given(blob=st.one_of(
    st.binary(max_size=40),
    st.sampled_from([b"[" * 100000, b"9" * 5000, b'{"train": {"seed": ' + b"9" * 5000 + b"}}",
                     b'{"train": \xff}', b"NaN", b'{"data": {"synthetic": {"dim": 1e999}}}'])))
def test_raw_bytes(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("b") / "in.json"
    path.write_bytes(blob)
    for load in (load_train_config, load_checkpoint, cli.load_feature_file, load_chain,
                 parse_manifest):
        returns_or_input_error(load, path)


# Each subcommand with placeholders for its required arguments: the flag tests
# run only the parser and the flag check, never a job.
COMMANDS = [*(["analyze", kind, "--manifest", "m", "--out", "o"]
              for kind in ("dct", "rapsd", "luma", "spectrum")),
            ["degrade", "--manifest", "m", "--chain", "c", "--out", "o"],
            ["train", "--config", "c", "--out", "o"],
            ["evaluate", "--checkpoint", "c", "--features", "f", "--out", "o"]]


def flag_rows(command) -> tuple:
    """The rows of ``command``'s numeric options, its kind's ``--bins`` included."""
    bins = cli.BINS.get(command[1])
    numeric = tuple(row for row in cli.FLAG_FIELDS[command[0]] if row.kind in ("int", "number"))
    return numeric + ((bins[1],) if bins else ())


@pytest.fixture
def no_jobs(monkeypatch):
    for name in ("cmd_analyze", "cmd_degrade", "cmd_train", "cmd_evaluate"):
        monkeypatch.setattr(cli, name, lambda args: 0)


@PROPERTY
@given(command=st.sampled_from(COMMANDS), data=st.data())
def test_flags_in_range_pass(no_jobs, capsys, command, data):
    flags = [f"--{field.key}={data.draw(_number(field, field.kind == 'int'))}"
             for field in flag_rows(command) if data.draw(st.booleans())]
    code, err = run(capsys, *command, *flags)
    assert code == 0, err


@PROPERTY
@given(command=st.sampled_from(COMMANDS), data=st.data())
def test_flags_out_of_range_exit_2(no_jobs, capsys, command, data):
    field = data.draw(st.sampled_from(flag_rows(command)))
    value = data.draw(st.sampled_from(past_bounds(field) + ["nan", "inf", "-inf"]))
    code, err = run(capsys, *command, f"--{field.key}={value}")
    assert code == 2 and err.startswith(f"usage: xmodal {command[0]}")
    assert f"--{field.key}" in err.splitlines()[-1] and "Traceback" not in err


@settings(PROPERTY, max_examples=8)
# a blur or resize at the top of its budget takes seconds and hundreds of MB
@given(step=st.sampled_from(sorted(set(STEP_FIELDS) - {"gaussian_blur", "resize"})),
       data=st.data())
def test_main_exit_codes(tmp_path_factory, capsys, step, data):
    tmp = tmp_path_factory.mktemp("main")
    image = tmp / "f.pgm"
    save_image(textured_image(seed=0, h=16, w=16), image)
    line = data.draw(document(MANIFEST_FIELDS))
    manifest = tmp / "m.jsonl"
    manifest.write_text(json.dumps({**line, "path": str(image)}) + "\n")
    chain = tmp / "chain.json"
    chain.write_text(json.dumps(
        {"steps": [{"step": step, **data.draw(document(STEP_FIELDS[step]))}]}))
    for argv in (["degrade", "--chain", chain], ["analyze", "dct", "--chain", chain],
                 ["analyze", "luma"]):
        code, err = run(capsys, *argv, "--manifest", manifest, "--out", tmp / "out")
        assert code in (0, 2, 3) and "Traceback" not in err
        if code:
            assert err.startswith("error: ") and len(err.splitlines()) == 1


# --- choices: each set of values is one tuple, checked where a public call takes it ---

Z = np.random.default_rng(0).normal(size=(8, 4))
Y = np.array([0, 0, 1, 1, 0, 1, 0, 1])
M = np.array([0, 1, 0, 1, 1, 0, 0, 1])
MODEL = ToyModel.init(4, 5, 3, np.random.default_rng(0))
X = np.random.default_rng(1).normal(size=(8, 4))
IMAGE = np.random.default_rng(2).random((3, 32, 32))
SCORES = np.array([0.9, 0.2, 0.6, 0.4, 0.7, 0.1])
CODES = np.array([1, 0, 1, 0, 0, 1], dtype=np.int8)
SUBSETS = ["a", "a", "a", "b", "b", "b"]
PREDICTIONS = [ScoredPrediction(s, LABELS[c], u) for s, c, u in zip(SCORES, CODES, SUBSETS)]

# name -> (the call of a choice, the value it is given, the result of that value's
# branch, the choice's argument and its values). Each result is the one the branch
# gave when the choices were enum members, called with the member.
CHOICE_CASES = {
    "contrastive_loss": (lambda v: contrastive_loss(Z, Y, M, variant=v),
                         "cross_modal", 7.753138423331565, "variant", VARIANTS),
    "contrastive_grad": (lambda v: np.abs(contrastive_grad(Z, Y, M, variant=v)).sum(),
                         "cross_modal", 18.668311412978163, "variant", VARIANTS),
    "backward": (lambda v: sum(np.abs(g).sum() for g in backward(
                     MODEL, X, Y, 0.5, 0.07, M, "projection", v).values()),
                 "cross_modal", 123.47583137831052, "variant", VARIANTS),
    "contrastive_term": (lambda v: contrastive_term(Z, Y, M, 0.07, v),
                         "cross_modal", 7.753138423331565, "variant", VARIANTS),
    "forward": (lambda v: np.abs(forward(MODEL, X, v).z).sum(),
                "hidden", 9.229062965755936, "feature_layer", FEATURE_LAYERS),
    "rapsd": (lambda v: rapsd(IMAGE, v, 8).power.sum(),
              "hann", 0.05321612716001538, "window", WINDOWS),
    "rgb_to_ycbcr": (lambda v: rgb_to_ycbcr(IMAGE, v).sum(),
                     "limited", 1539.192459756663, "color_range", COLOR_RANGES),
    "ycbcr_to_rgb": (lambda v: ycbcr_to_rgb(IMAGE, v).sum(),
                     "limited", 1560.0522606922818, "color_range", COLOR_RANGES),
    "quant_table_from_quality": (lambda v: quant_table_from_quality(50, v).sum(),
                                 "chroma", 5505, "channel", JPEG_CHANNELS),
    "subset_report": (lambda v: subset_report(SCORES, CODES, SUBSETS, 0.5, v)["headline"],
                      "overall", "overall", "headline", AGGREGATIONS),
    "per_subset_report": (lambda v: per_subset_report(PREDICTIONS, headline=v)["headline"],
                          "overall", "overall", "headline", AGGREGATIONS),
    "restrict_modality": (lambda v: generate_synthetic(SyntheticSpec.default()).train
                          .restrict_modality(v).x.sum(),
                          "video", 8.075903916641515, "modality", MODALITIES),
}


@pytest.mark.parametrize("name", sorted(CHOICE_CASES))
def test_a_choice_given_as_its_string_takes_the_branch_it_names(name):
    call, value, result, _, _ = CHOICE_CASES[name]
    expected = result if isinstance(result, str) else pytest.approx(result, rel=1e-12)
    assert call(value) == expected


@pytest.mark.parametrize("name", sorted(CHOICE_CASES))
def test_an_off_row_choice_raises_input_error_naming_its_argument(name):
    call, value, _, key, choices = CHOICE_CASES[name]
    words = f"{key!r}: must be one of {', '.join(map(repr, choices))}, got {value[:-1]!r}"
    with pytest.raises(InputError, match=f"^{re.escape(f'{name}: {words}')}$"):
        call(value[:-1])


# a library call past its own bound, and the words of its InputError
BOUND_CASES = [
    (lambda: dct8x8_forward(np.zeros((4, 4))),
     "dct8x8_forward: expected an 8x8 block, got shape (4, 4)"),
    (lambda: dct8x8_inverse(np.zeros((8, 9))),
     "dct8x8_inverse: expected an 8x8 block, got shape (8, 9)"),
    (lambda: rapsd(IMAGE, nbins=0), "rapsd: 'nbins': must be an integer >= 1, got 0"),
    (lambda: rapsd(IMAGE, nbins=2.0), "rapsd: 'nbins': must be an integer >= 1, got 2.0"),
    (lambda: dct_ac_histogram([IMAGE], nbins=0),
     "dct_ac_histogram: 'nbins': must be an integer >= 1, got 0"),
    *((lambda value=value: dct_ac_histogram([IMAGE], value_range=value),
       f"dct_ac_histogram: 'value_range': must be a finite number > 0, got {value!r}")
      for value in (0, -1.5, float("nan"), float("inf"), True)),
    (lambda: select_frame_indices(4, 0),
     "select_frame_indices: 'frames': must be an integer >= 1, got 0"),
    (lambda: mixed_batch_sampler(np.arange(3), np.arange(3, 6), 1, np.random.default_rng(0)),
     "mixed_batch_sampler: 'batch_size': must be an integer >= 2, got 1"),
    *((lambda value=value: ScoredPrediction(value, "fake", "a"),
       f"ScoredPrediction: 'score': must be a finite number in [0, 1], got {value!r}")
      for value in (-0.5, 1.5, float("nan"))),
    (lambda: ScoredPrediction(np.float32(np.inf), "fake", "a"),
     "ScoredPrediction: 'score': must be a finite number in [0, 1], got np.float32(inf)"),
]


@pytest.mark.parametrize("call, words", BOUND_CASES, ids=[
    f"{words.split(':')[0]}-{words.rsplit('got ', 1)[1]}" for _, words in BOUND_CASES])
def test_a_library_bound_raises_input_error(call, words):
    with pytest.raises(InputError, match=f"^{re.escape(words)}$"):
        call()


def test_library_bounds_admit_their_edges():
    assert select_frame_indices(4, 1) == [2]
    assert len(mixed_batch_sampler(np.arange(3), np.arange(3, 6), 2,
                                   np.random.default_rng(0))) == 3
    # a NumPy float is a number, as a NumPy integer is an integer
    scores = (0, 1.0, np.float32(0.25))
    assert [ScoredPrediction(score, "real", "a").score for score in scores] == [0, 1.0, 0.25]
    assert len(rapsd(IMAGE, nbins=1).power) == 1
    assert len(rapsd(IMAGE, nbins=np.int64(3)).power) == 3  # a NumPy integer is an integer
    result = dct_ac_histogram([IMAGE], value_range=5e-324, nbins=1)
    assert len(result.counts) == 1 and result.total_ac == 16 * 63  # 16 blocks of 8x8


def test_each_choice_row_reads_the_tuple_the_library_checks():
    library = {"label": LABELS, "modality": MODALITIES, "window": WINDOWS,
               "aggregation": AGGREGATIONS, "variant": VARIANTS,
               "feature_layer": FEATURE_LAYERS}
    rows = [row for table in (*cli.FLAG_FIELDS.values(), FEATURE_FIELDS, cli.TRAINING_FIELDS,
                              TRAIN_FIELDS, MANIFEST_FIELDS)
            for row in table if row.kind == "choice"]
    assert {row.key for row in rows} == set(library)
    for row in rows:
        assert row.choices is library[row.key], row.key


def test_no_module_defines_an_enum():
    found = []
    for path in sorted(Path(xmodal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                found += [f"{path.name}: class {node.name}({ast.unparse(base)})"
                          for base in node.bases if "Enum" in ast.unparse(base)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [node.module] if isinstance(node, ast.ImportFrom) else [
                    alias.name for alias in node.names]
                found += [f"{path.name}: imports enum" for module in modules if module == "enum"]
    assert not found


def test_a_non_finite_parameter_is_a_numerical_error():
    params = {name: np.array(getattr(MODEL, name)) for name in ("w1", "b1", "wp", "wc", "bc")}
    params["wc"][1] = np.inf
    with pytest.raises(NumericalError, match="^wc: non-finite value$"):
        ToyModel(**params)


@pytest.mark.parametrize("name", sorted(PIXEL_CALLS))
def test_every_pixel_function_checks_its_planes(tmp_path, name):
    channels = "3" if name in ("rgb_to_ycbcr", "ycbcr_to_rgb") else "1 or 3"
    for shape in ((2, 16, 16), (16, 16), (3, 0, 16), (1, 1, 16, 16)):
        words = f"image planes must have shape ({channels}, height, width), got {shape}"
        with pytest.raises(InputError, match=f"^{re.escape(words)}$"):
            PIXEL_CALLS[name](np.zeros(shape), tmp_path / "f.ppm")
    planes = np.full((3, 16, 16), 0.5)
    planes[1, 2, 3] = np.nan
    with pytest.raises(NumericalError, match="^image data must be finite$"):
        PIXEL_CALLS[name](planes, tmp_path / "f.ppm")
    assert not (tmp_path / "f.ppm").exists()


def _catches_value_error(handler: ast.ExceptHandler) -> bool:
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(name is None or getattr(name, "id", None) in ("ValueError", "Exception")
               for name in names)


def _value_error_raises(nodes, caught: bool = False):
    """For each ``raise ValueError`` in ``nodes``, outside nested functions: whether
    a ``try`` around it catches ValueError."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
        if "ValueError" in (getattr(exc, "id", None), getattr(getattr(exc, "func", None), "id",
                                                               None)):
            yield caught
        if isinstance(node, ast.Try):
            yield from _value_error_raises(
                node.body, caught or any(map(_catches_value_error, node.handlers)))
            yield from _value_error_raises([*node.handlers, *node.orelse, *node.finalbody],
                                           caught)
        else:
            yield from _value_error_raises(ast.iter_child_nodes(node), caught)


def test_every_value_error_the_library_raises_is_caught_where_it_is_raised():
    # ValueError is outside the exit-code contract (2 for input, 3 for numerical
    # errors): a library raise of one is a step of its own function's control flow
    found = []
    for path in sorted(Path(xmodal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.name, node.name, caught)
                          for caught in _value_error_raises(node.body)]
    assert found == [("cli.py", "_feature_columns", True)]
