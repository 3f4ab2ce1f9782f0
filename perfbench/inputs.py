"""Seeded input generators for the benchmark workloads.

Everything written here is a pure function of the seed passed in, so the same
seed gives byte-identical inputs. The program under test only ever sees these
files; nothing is downloaded.

Frame corpora are 8-bit binary PPM (P6) files grouped into videos of
``FRAMES_PER_VIDEO`` frames. Each frame has structure (a gradient background
and flat-coloured shapes that pan across the video), texture (a sinusoidal
grating), sensor-like noise, and real full-range extremes (black letterbox
bars, a black-to-white ramp strip and a saturated highlight) so that the luma
range detector reads ``full``. A fixed set of bad records is planted in every corpus: one
truncated payload, one wrong magic number and one missing file per
``FRAMES_PER_BAD_SET`` good frames.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEIGHT, WIDTH = 360, 640
FRAMES_PER_VIDEO = 6
FRAMES_PER_BAD_SET = 36
BAD_KINDS = ("truncated", "bad_magic", "missing")
LETTERBOX_ROWS = 16
RAMP_ROWS = 8

# The canonical video-delivery chain of the paper: motion blur, downscale to
# a 256 shorter side, JPEG Q75, then the deadzone video-codec quantizer.
CHAIN = {
    "steps": [
        {"step": "motion_blur", "length": 5, "angle_deg": 0.0},
        {"step": "resize", "shorter_side": 256},
        {"step": "jpeg", "quality": 75},
        {"step": "video_codec", "qstep": 16.0, "deadzone": 0.5},
    ]
}
CHAIN_SHORTER_SIDE = 256

# Default synthetic training task (README defaults; batch size 32).
TRAIN_EPOCHS = 150
TRAIN_BATCH = 32
TRAIN_LAMBDA = 0.05
TRAIN_TAU = 0.07

# Frame-level evaluation file: per subset, this many single images per class
# and this many videos per class, each video EVAL_FRAMES_PER_VIDEO frames.
EVAL_SUBSETS = ("gen_a", "gen_b", "gen_c")
EVAL_IMAGES_PER_CLASS = 1000
EVAL_VIDEOS_PER_CLASS = 500
EVAL_FRAMES_PER_VIDEO = 8
EVAL_FRAMES_SCORED = 4


@dataclass(frozen=True)
class Corpus:
    manifest: Path
    n_records: int
    n_frames: int
    bad_ids: frozenset
    frame_paths: dict  # id -> path of every good frame


def _rng(seed: int, stream: str) -> np.random.Generator:
    # Independent streams per purpose, all derived from the one seed.
    tag = [ord(c) for c in stream]
    return np.random.default_rng(np.random.SeedSequence([int(seed) % 2**63, *tag]))


def _write(path: Path, data: bytes) -> None:
    # Flushed to disk now, so that write-back of fresh inputs does not run
    # during the first measured pass.
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def _ppm_bytes(codes: np.ndarray) -> bytes:
    h, w, _ = codes.shape
    return b"P6\n%d %d\n255\n" % (w, h) + codes.tobytes()


def _video_scene(rng: np.random.Generator, pan: int) -> np.ndarray:
    """Float32 (H, W + pan, 3) scene the video's frames are cut from."""
    w = WIDTH + pan
    ys = np.linspace(0.0, 1.0, HEIGHT, dtype=np.float32)[:, None, None]
    xs = np.linspace(0.0, 1.0, w, dtype=np.float32)[None, :, None]
    c0, c1, c2 = (rng.uniform(20.0, 235.0, 3).astype(np.float32) for _ in range(3))
    scene = c0 + (c1 - c0) * xs + (c2 - c0) * 0.5 * ys
    for _ in range(int(rng.integers(4, 9))):
        y0 = int(rng.integers(0, HEIGHT - 40))
        x0 = int(rng.integers(0, w - 60))
        hh = int(rng.integers(30, HEIGHT // 2))
        ww = int(rng.integers(40, WIDTH // 3))
        scene[y0 : y0 + hh, x0 : x0 + ww] = rng.uniform(0.0, 255.0, 3)
    # A grey black-to-white ramp under the top bar, as in a broadcast test
    # strip: continuous tones between the pure-black bars and the scene, so
    # the luma histogram has no empty codes that could read as a TV-range comb.
    band = slice(LETTERBOX_ROWS, LETTERBOX_ROWS + RAMP_ROWS)
    scene[band] = np.linspace(0.0, 255.0, w, dtype=np.float32)[None, :, None]
    fy, fx = rng.uniform(0.02, 0.3, 2)
    grating = np.outer(
        np.sin(np.arange(HEIGHT, dtype=np.float32) * fy),
        np.cos(np.arange(w, dtype=np.float32) * fx),
    )
    scene += float(rng.uniform(6.0, 20.0)) * grating[:, :, None]
    return scene


def _frame(scene: np.ndarray, offset: int, rng: np.random.Generator) -> np.ndarray:
    frame = scene[:, offset : offset + WIDTH].copy()
    frame += rng.standard_normal(frame.shape, dtype=np.float32) * float(
        rng.uniform(2.0, 8.0)
    )
    # True full-range extremes: black letterbox bars and a clipped highlight.
    frame[:LETTERBOX_ROWS] = 0.0
    frame[-LETTERBOX_ROWS:] = 0.0
    hy = int(rng.integers(LETTERBOX_ROWS, HEIGHT - LETTERBOX_ROWS - 24))
    hx = int(rng.integers(0, WIDTH - 48))
    frame[hy : hy + 24, hx : hx + 48] = 255.0
    return np.clip(np.floor(frame + 0.5), 0.0, 255.0).astype(np.uint8)


def make_corpus(out_dir: Path, rel_root: Path, n_frames: int, seed: int) -> Corpus:
    """Write ``n_frames`` good frames plus the planted bad records.

    Manifest paths are relative to ``rel_root`` (the directory the CLI runs
    in), so outputs that echo input paths are identical across checkouts.
    """
    if n_frames % FRAMES_PER_VIDEO or n_frames < FRAMES_PER_BAD_SET:
        raise ValueError(
            f"n_frames must be a multiple of {FRAMES_PER_VIDEO}, >= {FRAMES_PER_BAD_SET}")
    rng = _rng(seed, "corpus")
    frames_dir = out_dir / "frames"
    frames_dir.mkdir(parents=True, exist_ok=True)
    records: list[dict] = []
    frame_paths: dict[str, Path] = {}
    for v in range(n_frames // FRAMES_PER_VIDEO):
        vid = f"vid{v:03d}"
        speed = int(rng.integers(1, 6))
        scene = _video_scene(rng, pan=speed * FRAMES_PER_VIDEO)
        for f in range(FRAMES_PER_VIDEO):
            path = frames_dir / f"{vid}_{f}.ppm"
            _write(path, _ppm_bytes(_frame(scene, f * speed, rng)))
            rec_id = f"{vid}#{f}"
            frame_paths[rec_id] = path
            records.append(
                {
                    "id": rec_id,
                    "path": str(path.relative_to(rel_root)),
                    "label": "fake" if v % 2 else "real",
                    "modality": "video",
                    "subset": "gen_a" if v % 4 < 2 else "gen_b",
                    "frame_index": f,
                    "frame_count": FRAMES_PER_VIDEO,
                }
            )
    good = _ppm_bytes(np.full((HEIGHT, WIDTH, 3), 128, dtype=np.uint8))
    bad: list[dict] = []
    for k in range(n_frames // FRAMES_PER_BAD_SET):
        for kind in BAD_KINDS:
            path = out_dir / "bad" / f"{kind}_{k}.ppm"
            path.parent.mkdir(exist_ok=True)
            if kind == "truncated":
                _write(path, good[: len(good) // 2])
            elif kind == "bad_magic":
                _write(path, b"P7" + good[2:])
            # "missing": the manifest names a file that is never written
            bad.append(
                {
                    "id": f"bad_{kind}_{k}",
                    "path": str(path.relative_to(rel_root)),
                    "label": "real",
                    "modality": "image",
                    "subset": "gen_a",
                }
            )
    # Bad records go to seeded positions among the good ones.
    for rec in bad:
        records.insert(int(rng.integers(0, len(records) + 1)), rec)
    manifest = out_dir / "manifest.jsonl"
    _write(manifest, "".join(json.dumps(r) + "\n" for r in records).encode())
    return Corpus(
        manifest=manifest,
        n_records=len(records),
        n_frames=n_frames,
        bad_ids=frozenset(r["id"] for r in bad),
        frame_paths=frame_paths,
    )


def write_chain(path: Path) -> Path:
    _write(path, json.dumps(CHAIN, indent=2).encode())
    return path


def train_seed(seed: int) -> int:
    return int(_rng(seed, "train").integers(0, 2**31))


def write_train_config(path: Path, seed: int) -> Path:
    """The default synthetic task, with data and initialisation seeded from ``seed``."""
    s = train_seed(seed)
    doc = {
        "data": {"synthetic": {"seed": s}},
        "train": {
            "epochs": TRAIN_EPOCHS,
            "batch_size": TRAIN_BATCH,
            "lambda": TRAIN_LAMBDA,
            "tau": TRAIN_TAU,
            "seed": s,
        },
    }
    _write(path, json.dumps(doc, indent=2).encode())
    return path


@dataclass(frozen=True)
class FeatureFile:
    path: Path
    n_frames: int


def synthetic_layout() -> tuple[np.ndarray, np.ndarray]:
    """Group means and stds of the default synthetic task, (4, 6) each.

    Rows are (real image, fake image, real video, fake video): coordinate 0
    carries the class in both domains, coordinate 1 only for images, and
    video rows are shifted on coordinates 1-3. Written out here rather than
    read from the program so that the inputs stay fixed across versions.
    """
    means = np.zeros((4, 6))
    video_shift = np.array([0.0, 3.0, 2.5, -2.5, 0.0, 0.0])
    for g, (fake, video) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        sign = 1.0 if fake else -1.0
        means[g, 0] = sign * 5.0 / 2.0
        if video:
            means[g] += video_shift
        else:
            means[g, 1] = sign * 7.0 / 2.0
    return means, np.ones((4, 6))


def write_feature_file(path: Path, seed: int) -> FeatureFile:
    """Frame-level features drawn from the synthetic test distribution.

    Frames of one video
    share a per-video offset, so each frame keeps the group's marginal
    distribution while frames of a video are correlated. Records are
    shuffled so that grouping by ``video_id`` has work to do.
    """
    rng = _rng(seed, "features")
    means, stds = synthetic_layout()
    dim = means.shape[1]
    groups = (("real", "image"), ("fake", "image"), ("real", "video"), ("fake", "video"))
    mix = np.sqrt(0.5)
    records: list[dict] = []
    for subset in EVAL_SUBSETS:
        for g, (label, modality) in enumerate(groups):
            if modality == "image":
                xs = means[g] + stds[g] * rng.standard_normal((EVAL_IMAGES_PER_CLASS, dim))
                for i, x in enumerate(np.round(xs, 6).tolist()):
                    records.append(
                        {"id": f"{subset}_{label}_img{i}", "x": x, "label": label,
                         "modality": modality, "subset": subset}
                    )
                continue
            n, t = EVAL_VIDEOS_PER_CLASS, EVAL_FRAMES_PER_VIDEO
            shared = rng.standard_normal((n, 1, dim))
            own = rng.standard_normal((n, t, dim))
            xs = np.round(means[g] + stds[g] * mix * (shared + own), 6)
            for v in range(n):
                vid = f"{subset}_{label}_vid{v}"
                for f in range(t):
                    records.append(
                        {"id": f"{vid}#{f}", "x": xs[v, f].tolist(), "label": label,
                         "modality": modality, "subset": subset, "video_id": vid,
                         "frame_index": f}
                    )
    order = rng.permutation(len(records))
    doc = {"records": [records[i] for i in order]}
    _write(path, json.dumps(doc).encode())
    return FeatureFile(path=path, n_frames=len(records))
