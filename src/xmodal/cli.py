"""Command-line surface: analysis, degradation, training, evaluation jobs.

Every command is deterministic given its config and seed; rerunning writes
byte-identical outputs. Outputs are data files (CSV + JSON), never rendered
plots. Exit codes: 0 success (possibly with per-sample warnings), 2
configuration/input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import shutil
import sys
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from . import __version__
from .core import (
    AGGREGATIONS,
    LABELS,
    MAX_SIDE,
    MAX_SIGMA,
    MODALITIES,
    SEED_ROW,
    WINDOWS,
    ZERO_EPS,
    FRAMES_ROW,
    Field,
    check_fields,
    csv_text,
    describe,
    iter_samples,
    load_codes,
    load_luma,
    parse_manifest,
    read_json,
    save_image,
    write_manifest,
)
from .errors import InputError, NumericalError

# Each command imports its own stack when it runs: the pixel stack (pixelops,
# codecsim, forensics) or the learning one (cmsupcon, trainer, metrics).
if TYPE_CHECKING:
    from .trainer import EpochStats, FeatureDataset, ToyModel


def _write_json(path: Path, doc: dict) -> None:
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a NaN or infinity
        raise NumericalError(f"{path}: {exc}") from None
    path.write_text(text + "\n", encoding="utf-8")


def _write_run_manifest(out_dir: Path, command: str, config: dict,
                        inputs: dict[str, Path]) -> None:
    files = {name: {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
             for name, path in inputs.items()}
    _write_json(out_dir / "run.json",
                {"command": command, "version": __version__, "config": config, "inputs": files})


def _flags(args: argparse.Namespace) -> dict:
    """The command's parsed options, as ``run.json`` records them."""
    return {key: value for key, value in vars(args).items()
            if key not in ("command", "func", "usage_error")}


def _seeded_chain(img: np.ndarray, chain: tuple, seed: int, sample_id: str) -> np.ndarray:
    """``img`` through the ``chain`` steps, drawing from a generator seeded per sample id."""
    from . import codecsim

    rng = np.random.default_rng(codecsim.derive_sample_seed(seed, sample_id))
    return codecsim.apply_chain(img, chain, rng)


# glibc mallopt parameters, and the values the corpus commands give them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEEP_FREED_BYTES = 1 << 30
# The largest mmap threshold glibc accepts on 64-bit: a 3-channel float64 frame
# above about 1.4 Mpixel. A chain builds one only when its leading channel-wise
# run is empty or keeps the frame's size; that run goes a plane at a time.
_HEAP_ARRAY_BYTES = 32 << 20


def _keep_freed_heap() -> None:
    """Keep freed heap mapped for the next sample, where glibc is the allocator.

    By default glibc hands freed heap back to the kernel once a few MiB sit
    free at its top, and gives large arrays fresh ``mmap`` pages each time,
    so every frame's temporaries fault in newly zeroed memory. This keeps up
    to 1 GiB of freed heap and serves arrays up to 32 MiB from the heap.
    Without glibc's ``mallopt`` it does nothing.
    """
    import ctypes

    try:
        # CDLL(None) raises TypeError where there is no process-wide handle
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _KEEP_FREED_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _HEAP_ARRAY_BYTES)


# --- analyze ----------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import codecsim, forensics

    records = parse_manifest(args.manifest)[: args.limit]
    kind = args.kind
    inputs = {"manifest": Path(args.manifest)}
    # every kind reduces luma, so without a chain (which needs every channel)
    # frames are decoded straight to luma, and spectrum decodes only its window;
    # a chain starts from the frame's 8-bit codes
    chain = None
    loader = load_luma
    if args.chain:
        chain = codecsim.load_chain(args.chain)
        inputs["chain"] = Path(args.chain)
        loader = load_codes
    elif kind == "spectrum":
        loader = functools.partial(load_luma, size=args.size)

    def per_sample(rec: Mapping, img: np.ndarray):
        if chain is not None:
            img = _seeded_chain(img, chain, args.seed, rec["id"])
        if kind == "dct":
            # a frame too small for one DCT block fails alone, like a bad file
            return forensics.require_dct_block(img)
        if kind == "rapsd":
            return forensics.rapsd(img, window=args.window, nbins=args.bins)
        if kind == "spectrum":
            return forensics.residual_power(img, args.sigma, args.size)
        return img

    _keep_freed_heap()
    # each reducer folds the results as they stream in; ``failures`` fills as it does
    failures: list[dict] = []
    results = iter_samples(records, per_sample, loader, failures, f"{kind} analysis",
                           args.threads)

    if kind == "dct":
        edges, counts, zero_fraction, total_ac = forensics.dct_ac_histogram(
            results, value_range=args.range, nbins=args.bins)
        header = ("bin_lo", "bin_hi", "count")
        rows = zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())
        center = np.abs(edges[:-1] + np.diff(edges) / 2.0)
        near_zero = float(counts[center < 0.5].sum() / max(int(counts.sum()), 1))
        summary = {
            "zero_fraction": zero_fraction,
            "near_zero_mass": near_zero,
            "total_ac": total_ac,
            "n_images": len(records) - len(failures),
        }

    elif kind == "rapsd":
        profile = forensics.dataset_mean_rapsd(results)
        header = ("radius", "power", "count")
        rows = zip(profile.radii.tolist(), profile.power.tolist(), profile.counts.tolist())
        third = len(profile.power) // 3
        summary = {
            "low_band_power": float(profile.power[:third].mean()),
            "mid_band_power": float(profile.power[third : 2 * third].mean()),
            "high_band_power": float(profile.power[2 * third :].mean()),
            "n_used": len(records) - len(failures),
        }

    elif kind == "luma":
        counts = forensics.luminance_histogram(results)
        header = ("code", "count")
        rows = enumerate(counts.tolist())
        verdict, tail_mass, comb_score = forensics.detect_tv_range(counts)
        summary = {
            "verdict": verdict,
            "tail_mass": tail_mass,
            "comb_score": comb_score,
            "total_pixels": int(counts.sum()),
            "n_images": len(records) - len(failures),
        }

    else:  # spectrum; argparse restricts the kinds
        values = forensics.residual_spectrum(results)
        height, width = values.shape
        header = ("row", "col", "log10_power")
        rows = [(y, x, value) for y, row in enumerate(values.tolist())
                for x, value in enumerate(row)]
        cy, cx = height // 2, width // 2
        quarter = max(height // 4, 1)
        lf = values[cy - quarter : cy + quarter, cx - quarter : cx + quarter]
        total_sum = values.sum()
        lf_sum = lf.sum()
        hf_cells = values.size - lf.size
        summary = {
            "low_freq_mean": float(lf.mean()),
            "high_freq_mean": float((total_sum - lf_sum) / max(hf_cells, 1)),
            "size": width,
            "denoise_sigma": args.sigma,
            "n_used": len(records) - len(failures),
        }

    summary["n_failed"] = len(failures)
    summary["failed_ids"] = [failure["id"] for failure in failures]
    summary["failures"] = failures
    # created only once a sample has reduced, so an all-failing run leaves no --out
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{kind}.csv").write_text(csv_text(header, rows), encoding="utf-8")
    _write_json(out_dir / f"{kind}.summary.json", summary)
    _write_run_manifest(out_dir, f"analyze {kind}", _flags(args), inputs)
    return 0


# --- degrade -----------------------------------------------------------------


def _safe_filename(sample_id: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in sample_id)


def cmd_degrade(args: argparse.Namespace) -> int:
    from . import codecsim

    records = parse_manifest(args.manifest)[: args.limit]
    chain = codecsim.load_chain(args.chain)
    out_dir = Path(args.out)
    # the outermost directory this run creates, removed again if every sample fails
    created = next((d for d in (*reversed(out_dir.parents), out_dir) if not d.exists()), None)
    out_dir.mkdir(parents=True, exist_ok=True)
    position = {rec["id"]: i for i, rec in enumerate(records)}
    _keep_freed_heap()

    def degrade_one(rec: Mapping, codes: np.ndarray) -> dict:
        degraded = _seeded_chain(codes, chain, args.seed, rec["id"])
        ext = "pgm" if len(degraded) == 1 else "ppm"
        out_path = out_dir / f"{position[rec['id']]:06d}_{_safe_filename(rec['id'])}.{ext}"
        save_image(degraded, out_path)
        return {**rec, "path": str(out_path)}

    failures: list[dict] = []
    try:
        new_records = tuple(iter_samples(records, degrade_one, load_codes, failures,
                                         "degradation", args.threads))
    except InputError:
        if created is not None:
            shutil.rmtree(created)
        raise
    write_manifest(new_records, out_dir / "manifest.jsonl")
    summary = {
        "n_ok": len(new_records),
        "n_failed": len(failures),
        "failures": failures,
    }
    _write_json(out_dir / "degrade.summary.json", summary)
    _write_run_manifest(
        out_dir,
        "degrade",
        _flags(args),
        {"manifest": Path(args.manifest), "chain": Path(args.chain)},
    )
    return 0


# --- train ---------------------------------------------------------------------


# A training config file, and its `data` section: the synthetic task, or
# both feature files
CONFIG_FIELDS = (Field("train", "object"), Field("data", "object"))
DATA_FIELDS = (Field("synthetic", "object"), Field("train_features", "string", lo=1),
               Field("val_features", "string", lo=1))


def load_feature_file(path: str | Path) -> list:
    doc = read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("records"), list) or not doc["records"]:
        raise InputError(
            f"{path}: feature file must be {{'records': [...]}} with at least one record")
    return doc["records"]


def _records_to_dataset(path: Path) -> FeatureDataset:
    """Read a training feature file with the reader ``evaluate`` uses; the first
    record's ``x`` fixes the input width."""
    from . import trainer

    records = load_feature_file(path)
    if len(records) > trainer.MAX_SPLIT:
        raise InputError(f"{path}: {len(records)} records, more than a training split's "
                         f"{trainer.MAX_SPLIT}")
    first_x = records[0].get("x") if isinstance(records[0], dict) else None
    d_in = len(first_x) if isinstance(first_x, list) and first_x else 1
    x, labels, modalities, *_ = _feature_columns(records, TRAINING_FIELDS, d_in, path)
    return trainer.FeatureDataset(x, labels, modalities)


def _history_csv(history: Sequence[EpochStats]) -> str:
    from . import trainer

    return csv_text(trainer.EpochStats._fields, history)


def load_train_config(path: Path, seed: Optional[int] = None) -> tuple:
    """A config file's checked settings, with ``seed`` over its own, its ``data``
    section and, when that asks for the synthetic task, the task's spec.
    ``seed`` is the already checked ``--seed``."""
    from . import trainer

    where = f"{path}: "
    doc = check_fields(read_json(path), CONFIG_FIELDS, where)
    config = trainer.train_config(doc.get("train", {}), where)
    if seed is not None:
        config = MappingProxyType({**config, "seed": seed})
    data_doc = check_fields(doc.get("data", {"synthetic": {}}), DATA_FIELDS, where, "data.")
    if "synthetic" in data_doc:
        return config, data_doc, trainer.synthetic_spec(data_doc["synthetic"], where)
    if not {"train_features", "val_features"} <= data_doc.keys():
        raise InputError(
            f"{where}'data' must name 'synthetic', or 'train_features' and 'val_features'"
        )
    return config, data_doc, None


def cmd_train(args: argparse.Namespace) -> int:
    from . import trainer

    config_path = Path(args.config)
    config, data_doc, spec = load_train_config(config_path, args.seed)
    inputs = {"config": config_path}
    if spec is not None:
        data = trainer.generate_synthetic(spec)
        train_data, val_data = data.train, data.val
    else:
        inputs["train_features"] = Path(data_doc["train_features"])
        inputs["val_features"] = Path(data_doc["val_features"])
        train_data = _records_to_dataset(inputs["train_features"])
        val_data = _records_to_dataset(inputs["val_features"])
    rng = np.random.default_rng(config["seed"])
    model = trainer.ToyModel.init(
        train_data.x.shape[1], config["hidden_dim"], config["feature_dim"], rng
    )
    _keep_freed_heap()  # each epoch's validation statistics allocate the same n x n temporaries
    result = trainer.train(model, train_data, val_data, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trainer.save_checkpoint(result.model, config, out_dir / "checkpoint.json")
    (out_dir / "history.csv").write_text(_history_csv(result.history), encoding="utf-8")
    resolved = {
        "config_file": str(config_path),
        "out": str(args.out),
        "data": data_doc,
        "train": dict(config),
        "best_epoch": result.best_epoch,
        "best_val": result.best_val,
        "stopped_early": result.stopped_early,
    }
    _write_run_manifest(out_dir, "train", resolved, inputs)
    return 0


# --- evaluate ---------------------------------------------------------------------


# Records scored per forward call: large enough to amortize the per-call cost,
# small enough that a block's hidden activations stay a few hundred kB.
SCORE_BLOCK = 2048


def _record_name(rec, index: int) -> str:
    rec_id = rec.get("id") if isinstance(rec, dict) else None
    return f"feature record {index}" + (f" ({rec_id!r})" if rec_id is not None else "")


# the Python types of JSON numbers; bool is neither
_NUMBER_TYPES = {int, float}
_LABEL_CODES = {label: code for code, label in enumerate(LABELS)}
_MODALITY_CODES = {modality: code for code, modality in enumerate(MODALITIES)}

# One record of a feature file besides its `x`, a list of the model's input
# width of finite numbers. Keys off the table, such as `id`, pass unchecked.
FEATURE_FIELDS = (
    Field("label", "choice", choices=LABELS, required=True),
    Field("subset", "string", required=True),
    Field("video_id", "string", lo=1, null=True),
    Field("frame_index", "int", 0, 2**63 - 1, null=True),
    Field("modality", "choice", choices=MODALITIES, default="image"),
)
# training also reads every record's modality
TRAINING_FIELDS = (*FEATURE_FIELDS[:-1], dataclasses.replace(FEATURE_FIELDS[-1], required=True))


def _feature_columns(records: list, table: tuple, d_in: int, path) -> tuple:
    """x as an (n, d_in) float array, label and modality codes, subsets, video ids
    and frame indices (null as 0) of all records, checked in bulk against ``table``
    and an ``x`` of d_in >= 1 finite numbers. Only when that fails does the
    table run record by record, to name the first bad record. An absent
    optional modality reads as its row's default."""
    modality = table[-1]
    absent = None if modality.required else modality.default
    row = (Field("x", "number", required=True, length=d_in), *table)

    def name_the_first_bad_record():
        for i, rec in enumerate(records):
            check_fields(rec, row, f"{path}: {_record_name(rec, i)} ", extra=True)

    try:
        rows = [rec["x"] for rec in records]
        # only JSON numbers pass: numpy alone would read true/false and numeric strings
        if not set(map(type, itertools.chain.from_iterable(rows))) <= _NUMBER_TYPES:
            raise TypeError("x holds a value that is not a JSON number")
        x = np.array(rows, dtype=np.float64)
        labels = np.array([_LABEL_CODES[rec["label"]] for rec in records], dtype=np.int8)
        modalities = np.array([_MODALITY_CODES[rec.get("modality", absent)] for rec in records],
                              dtype=np.int8)
        subsets = [rec["subset"] for rec in records]
        videos = [rec.get("video_id") for rec in records]
        indices = [rec.get("frame_index") for rec in records]
        frames = np.array([f or 0 for f in indices], dtype=np.int64)
        if not (x.shape == (len(records), d_in) and np.isfinite(x).all()
                and set(map(type, subsets)) <= {str}
                and set(map(type, videos)) <= {str, type(None)} and "" not in videos
                and set(map(type, indices)) <= {int, type(None)} and frames.min() >= 0):
            raise ValueError("a record is off its table")
    except (KeyError, TypeError, ValueError, OverflowError):
        name_the_first_bad_record()
        raise
    # np.array rounds an integer just past float64's range to the largest float;
    # only the row check tells the two apart
    if np.abs(x).max() == sys.float_info.max:
        name_the_first_bad_record()
    return x, labels, modalities, subsets, videos, frames


def _score_feature_records(
    model: ToyModel, feature_layer: str, records: list[dict], t: int, path="features"
) -> tuple[np.ndarray, np.ndarray, list]:
    """Score, label code and subset of each video, all checked before any scoring;
    errors name ``path``. Videos come in the order of their first records; an
    image is a video of its own. A record whose logit is not finite raises
    NumericalError."""
    from . import metrics, trainer

    x, labels, _, subsets, videos, frames = _feature_columns(
        records, FEATURE_FIELDS, model.d_in, path)
    seen: dict[str, int] = {}
    head = np.array([i if v is None else seen.setdefault(v, i)  # the video's first record
                     for i, v in enumerate(videos)], dtype=np.intp)
    subset_code = {name: c for c, name in enumerate(dict.fromkeys(subsets))}
    codes = np.fromiter(map(subset_code.__getitem__, subsets), np.intp, len(subsets))
    disagree = np.flatnonzero((labels != labels[head]) | (codes != codes[head]))
    if disagree.size:
        i = disagree[np.argmin(head[disagree])]
        raise InputError(f"{path}: video {videos[i]!r} has inconsistent label or subset tags: "
                          f"{_record_name(records[i], i)} disagrees with "
                         f"{_record_name(records[head[i]], head[i])}")
    order = np.lexsort((frames, head))
    head, frames = head[order], frames[order]
    repeated = np.flatnonzero((head[1:] == head[:-1]) & (frames[1:] == frames[:-1]))
    if repeated.size:
        i, j = order[repeated[0]], order[repeated[0] + 1]
        raise InputError(f"{path}: video {videos[i]!r} has two frames with frame_index "
                          f"{frames[repeated[0]]}: {_record_name(records[i], i)} and "
                         f"{_record_name(records[j], j)}")
    starts = np.flatnonzero(np.append(True, head[1:] != head[:-1]))
    # finite features can still overflow the network; such a logit is reported, by record
    with np.errstate(over="ignore", invalid="ignore"):
        logits = np.concatenate([
            trainer.forward(model, x[first : first + SCORE_BLOCK], feature_layer).logits
            for first in range(0, len(records), SCORE_BLOCK)
        ])
    bad = np.flatnonzero(~np.isfinite(logits))
    if bad.size:
        i = int(bad[0])
        raise NumericalError(f"{path}: {_record_name(records[i], i)} has a non-finite logit "
                             f"({logits[i]})")
    heads = head[starts].tolist()
    scores = metrics.video_scores(logits[order], starts, t)
    return scores, labels[heads], [subsets[i] for i in heads]


def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import metrics, trainer

    model, config = trainer.load_checkpoint(args.checkpoint)
    records = load_feature_file(args.features)[: args.limit]
    scores, labels, subsets = _score_feature_records(
        model, config["feature_layer"], records, args.frames, args.features
    )
    inputs = {"checkpoint": Path(args.checkpoint), "features": Path(args.features)}
    report = metrics.subset_report(scores, labels, subsets, args.threshold, args.aggregation)
    rows = [*report["subsets"], report["mean_over_subsets"], report["overall_pooled"]]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.csv").write_text(
        csv_text(metrics.REPORT_COLUMNS, [row.values() for row in rows]), encoding="utf-8")
    _write_json(out_dir / "report.json", report)
    headline = report[metrics.HEADLINE_ROWS[args.aggregation]]
    config_doc = {**_flags(args), "headline_acc": headline["acc"]}
    _write_run_manifest(out_dir, "evaluate", config_doc, inputs)
    return 0


# --- argument parsing ------------------------------------------------------------


# --threads is at most MAX_THREADS, above any core count: the corpus loop's pool
# starts an OS thread per worker, and one the OS refuses ends the run in a traceback.
MAX_THREADS = 1024
# --range lies in (ZERO_EPS, MAX_RANGE], where every bin count gives finite,
# strictly ascending edges.
MAX_RANGE = 1e6
# Each subcommand's options, in the order of its usage line. The parser is built
# from these rows and the parsed values are checked against them, by the checker
# of the input files. A row's key is the option's name without its dashes, its
# kind gives the option's type, and --help prints its help and describe() words.
_MANIFEST = Field("manifest", "string", required=True)
_OUT = Field("out", "string", required=True)
_SEED = Field("seed", "int", default=0)
_LIMIT = Field("limit", "int", 1)
_THREADS = Field("threads", "int", 1, MAX_THREADS, default=1)
FLAG_FIELDS = {
    "analyze": (_MANIFEST, _OUT, _LIMIT, _SEED, _THREADS,
                Field("range", "number", ZERO_EPS, MAX_RANGE, ends="(]", default=64.0,
                      help="dct: half-width of the coefficient histogram"),
                Field("window", "choice", choices=WINDOWS, default="none"),
                Field("chain", "string",
                      help="degradation chain applied to every frame before analysis"),
                Field("sigma", "number", 0, MAX_SIGMA, ends="(]", default=1.0,
                      help="spectrum: residual blur sigma"),
                Field("size", "int", 8, MAX_SIDE, default=64, help="spectrum: transform size")),
    "degrade": (_MANIFEST, Field("chain", "string", required=True), _OUT, _SEED, _LIMIT,
                _THREADS),
    "train": (Field("config", "string", required=True), _OUT,
              dataclasses.replace(SEED_ROW, default=None,
                                  help="override the seed in the config file")),
    "evaluate": (Field("checkpoint", "string", required=True),
                 Field("features", "string", required=True), _OUT,
                 Field("aggregation", "choice", choices=AGGREGATIONS, default="subset-mean"),
                 FRAMES_ROW,
                 Field("threshold", "number", default=0.5), _LIMIT),
}
# analyze --bins for each kind that bins its values: (default, row). The rapsd
# summary splits the profile into three bands, and each needs at least one bin.
# 2**16 dct bins cut the +-1024 of 8-bit AC coefficients into 1/32 steps;
# MAX_SIDE rapsd bins are finer than the frequency step of any side a chain
# step makes.
BINS = {"dct": (129, Field("bins", "int", 1, 1 << 16)),
        "rapsd": (32, Field("bins", "int", 3, MAX_SIDE))}
_TYPES = {"int": int, "number": float}


def check_flags(args: argparse.Namespace) -> None:
    """Check the options in ``args`` against their command's rows, after giving
    ``--bins`` its kind's default. Raises InputError naming the option."""
    table = FLAG_FIELDS.get(args.command, ())
    if args.command == "analyze":
        if args.kind in BINS:
            default, row = BINS[args.kind]
            table += (row,)
            args.bins = default if args.bins is None else args.bins
        elif args.bins is not None:
            raise InputError(f"argument '--bins': does not apply to {args.kind}")
    flags = vars(args)
    check_fields({f.key: flags[f.key] for f in table if flags[f.key] is not None},
                 table, "argument ", "--")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmodal",
        description="Cross-modal AIGC-detection toolkit: analysis, degradation, "
        "training, and evaluation jobs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, about, func in (
        ("analyze", "run a forensic dataset analysis", cmd_analyze),
        ("degrade", "apply a degradation chain to a corpus", cmd_degrade),
        ("train", "train the desk-scale model", cmd_train),
        ("evaluate", "score a dataset and emit a report", cmd_evaluate),
        ("version", "print the tool version", lambda args: print(__version__) or 0),
    ):
        command = sub.add_parser(name, help=about)
        command.set_defaults(func=func, usage_error=command.error)
        if name == "analyze":
            command.add_argument("kind", choices=("dct", "rapsd", "luma", "spectrum"))
        for row in FLAG_FIELDS.get(name, ()):
            if name == "analyze" and row.key == "range":  # --bins keeps its usage-line place
                command.add_argument("--bins", type=int, help="; ".join(
                    f"{kind} (default {default}): {describe(bins)}"
                    for kind, (default, bins) in BINS.items()))
            words = describe(row)
            command.add_argument(f"--{row.key}", type=_TYPES.get(row.kind),
                                 choices=row.choices or None, required=row.required,
                                 default=row.default,
                                 help=f"{row.help}; {words}" if row.help else words)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_flags(args)
    except InputError as exc:  # a usage error: exit 2 with the command's usage line
        args.usage_error(str(exc))
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
