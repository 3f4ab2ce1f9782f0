"""In-process span tracer, installed only in a traced child.

Tracing rebinds the program's functions from outside: every
``xmodal.<module>.<name>`` listed in ``TARGETS`` is replaced, in every xmodal
namespace that holds it (module globals, function default arguments and the
``ToyModel.from_params`` classmethod), by a wrapper that records a span. No
source file is edited.

A span is ``(id, name, start, end, parent, thread)``; every span of a child
belongs to that child's one CLI job. Spans are kept in memory and written out
when the job ends. A span's self time is its duration minus the union of the
intervals its child spans cover, so parallel children are not counted twice.

Counters that need the call arguments (valid contrastive anchors, dead
feature rows, DCT blocks, bytes read and written) only capture references
while the job runs and are computed after it ends, so they add no work inside
any span.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
import types
from collections import defaultdict

import numpy as np

# Mini-batch versus full-set calls are told apart by row count; the benchmark
# trains with this batch size.
BATCH_ROWS = 32
LIVE_NORM = 1e-12
BLOCK = 8
DCT_BYTES_PER_BLOCK = 2 * 64 * 8  # read and write one 8x8 float64 block

P50_MIN_CALLS = 20
P90_MIN_CALLS = 100

TARGETS = (
    ("core", "load_image"),
    ("core", "save_image"),
    ("core", "parse_manifest"),
    ("core", "write_manifest"),
    ("pixelops", "motion_blur"),
    ("pixelops", "shorter_side_resize"),
    ("pixelops", "rgb_to_ycbcr"),
    ("pixelops", "ycbcr_to_rgb"),
    ("pixelops", "quantize_8bit"),
    ("pixelops", "to_luma"),
    ("pixelops", "gaussian_blur"),
    ("codecsim", "apply_chain"),
    ("codecsim", "jpeg_simulate"),
    ("codecsim", "video_codec_simulate"),
    ("forensics", "dct_ac_histogram"),
    ("forensics", "dataset_mean_rapsd"),
    ("forensics", "rapsd"),
    ("forensics", "luminance_histogram"),
    ("forensics", "detect_tv_range"),
    ("forensics", "residual_spectrum"),
    ("cmsupcon", "contrastive_loss"),
    ("cmsupcon", "contrastive_grad"),
    ("cmsupcon", "binary_cross_entropy"),
    ("cmsupcon", "bce_grad"),
    ("trainer", "train"),
    ("trainer", "backward"),
    ("trainer", "optimizer_step"),
    ("trainer", "forward"),
    ("trainer", "mixed_batch_sampler"),
    ("trainer", "contrastive_term"),
    ("trainer", "ToyModel.from_params"),
    ("metrics", "group_frames"),
    ("metrics", "multi_frame_average"),
    ("metrics", "per_subset_report"),
)


def _size_suffix(n: int) -> str:
    return "row" if n == 1 else "batch" if n <= BATCH_ROWS else "full"


def _rows_of_batch(args, kwargs) -> int:
    return (args[0] if args else kwargs["batch"]).z.shape[0]


def _rows_of_first_array(args, kwargs) -> int:
    return np.shape(args[0] if args else kwargs["logits"])[0]


def _rows_of_x(args, kwargs) -> int:
    return np.shape(args[1] if len(args) > 1 else kwargs["x"])[0]


# Spans whose name carries the call's row count: mini-batch, full-set or
# single-row calls do different work and move different metrics.
SIZE_SPLIT = {
    "cmsupcon.contrastive_loss": _rows_of_batch,
    "cmsupcon.contrastive_grad": _rows_of_batch,
    "cmsupcon.binary_cross_entropy": _rows_of_first_array,
    "cmsupcon.bce_grad": _rows_of_first_array,
    "trainer.forward": _rows_of_x,
}


class Tracer:
    def __init__(self, job: str, root_name: str):
        self.job = job
        self.root_name = root_name
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.captured: dict[str, list] = defaultdict(list)
        self.root_start = self.root_end = 0.0

    # --- recording ---------------------------------------------------------

    def wrap(self, name, fn, capture=None):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter
        get_ident = threading.get_ident
        split = SIZE_SPLIT.get(name)

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = [0]  # threads start under the job span
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                label = f"{name}.{_size_suffix(split(args, kwargs))}" if split else name
                spans.append((sid, label, t0, t1, parent, get_ident()))
                if capture is not None:
                    capture(args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        import importlib

        modules = {
            m: importlib.import_module(f"xmodal.{m}")
            for m in ("core", "pixelops", "codecsim", "forensics", "cmsupcon",
                      "trainer", "metrics", "cli")
        }
        captures = self._captures()
        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for mod_name, attr in TARGETS:
            span_name = f"{mod_name}.{attr}"
            if attr == "ToyModel.from_params":
                cls = modules["trainer"].ToyModel
                orig = cls.__dict__["from_params"].__func__
                cls.from_params = classmethod(self.wrap(span_name, orig))
                continue
            orig = getattr(modules[mod_name], attr)
            replaced[id(orig)] = (orig, self.wrap(span_name, orig, captures.get(span_name)))

        def traced_or_same(value):
            hit = replaced.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "xmodal"]:
            for key, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value.__defaults__:
                    # defaults bind at definition time (``loader=load_image``)
                    value.__defaults__ = tuple(map(traced_or_same, value.__defaults__))
                if traced_or_same(value) is not value:
                    setattr(module, key, traced_or_same(value))

    def _captures(self) -> dict:
        cap = self.captured

        def arg(args, kwargs, i, key):
            return args[i] if len(args) > i else kwargs[key]

        def image_shape(key):
            return lambda a, k: cap[key].append(arg(a, k, 0, "img").data.shape)

        def batch_labels(a, k):
            batch, cfg = arg(a, k, 0, "batch"), arg(a, k, 1, "cfg")
            cap["anchors"].append((batch.y, batch.m, cfg.variant.value == "cross_modal"))

        def dct_images(a, k):
            images = arg(a, k, 0, "images")
            if isinstance(images, (list, tuple)):
                cap["forensics_dct"].extend(img.data.shape for img in images)

        return {
            "core.load_image": lambda a, k: cap["read"].append(str(arg(a, k, 0, "path"))),
            "core.parse_manifest": lambda a, k: cap["read"].append(str(arg(a, k, 0, "path"))),
            "core.save_image": lambda a, k: cap["written"].append(str(arg(a, k, 1, "path"))),
            "core.write_manifest": lambda a, k: cap["written"].append(
                str(arg(a, k, 1, "path"))),
            "codecsim.jpeg_simulate": image_shape("codec_dct"),
            "codecsim.video_codec_simulate": image_shape("codec_dct"),
            "forensics.dct_ac_histogram": dct_images,
            "cmsupcon.contrastive_loss": batch_labels,
            "cmsupcon.contrastive_grad": batch_labels,
            "trainer.contrastive_term": lambda a, k: cap["feature_rows"].append(
                arg(a, k, 0, "z")),
        }

    # --- reduction ---------------------------------------------------------

    def all_spans(self) -> list[tuple]:
        root = (0, self.root_name, self.root_start, self.root_end, -1, threading.get_ident())
        return [root, *self.spans]

    def counters(self) -> dict[str, float]:
        cap = self.captured

        def file_bytes(paths):
            return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))

        codec_blocks = sum(
            c * -(-h // BLOCK) * -(-w // BLOCK) * 2 for c, h, w in cap["codec_dct"]
        )  # forward and inverse transform of every padded block
        forensic_blocks = sum((h // BLOCK) * (w // BLOCK) for _, h, w in cap["forensics_dct"])
        anchors = valid = 0
        for y, m, cross_modal in cap["anchors"]:
            pos = y[:, None] == y[None, :]
            if cross_modal:
                pos &= m[:, None] != m[None, :]
            np.fill_diagonal(pos, False)
            anchors += len(y)
            valid += int(pos.any(axis=1).sum())
        rows = dead = 0
        for z in cap["feature_rows"]:
            rows += z.shape[0]
            dead += int(np.count_nonzero(np.linalg.norm(z, axis=1) <= LIVE_NORM))
        return {
            "core.bytes_read": file_bytes(cap["read"]),
            "core.bytes_written": file_bytes(cap["written"]),
            "codecsim.dct_blocks": codec_blocks,
            "codecsim.dct_bytes_computed": codec_blocks * DCT_BYTES_PER_BLOCK,
            "forensics.dct_blocks": forensic_blocks,
            "forensics.dct_bytes_computed": forensic_blocks * DCT_BYTES_PER_BLOCK,
            "cmsupcon.anchors": anchors,
            "cmsupcon.valid_anchors": valid,
            "trainer.feature_rows": rows,
            "trainer.dead_rows": dead,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job, "fields": ["id", "name", "start", "end", "parent",
                                                   "thread"], "spans": self.all_spans()}, fh)


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    covered = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def accumulate(spans: list[tuple], into: dict[str, dict]) -> dict[str, dict]:
    """Add one job's spans to per-name ``calls``, ``total_s``, ``self_s``, ``durations``."""
    children: dict[int, list] = defaultdict(list)
    for _, _, t0, t1, parent, _ in spans:
        children[parent].append((t0, t1))
    for sid, name, t0, t1, _, _ in spans:
        dur = t1 - t0
        entry = into.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        )
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += dur - _union_length(children.get(sid, []), t0, t1)
        entry["durations"].append(dur)
    return into


def finish(per_name: dict[str, dict]) -> dict[str, dict]:
    """Replace raw durations by p50_ms/p90_ms where the call count allows them."""
    out = {}
    for name, entry in per_name.items():
        stats = {k: entry[k] for k in ("calls", "total_s", "self_s")}
        d = np.asarray(entry["durations"]) * 1e3
        if entry["calls"] >= P50_MIN_CALLS:
            stats["p50_ms"] = float(np.percentile(d, 50))
        if entry["calls"] >= P90_MIN_CALLS:
            stats["p90_ms"] = float(np.percentile(d, 90))
        out[name] = stats
    return out
