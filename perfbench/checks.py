"""Independent output checks: plain-NumPy readers and oracles.

Nothing here imports the program under test. Each check returns
``(name, ok, detail)``; a failed check counts as a failed operation and marks
the whole run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

KR, KG, KB = 0.299, 0.587, 0.114


def result(name: str, ok: bool, detail: str = "") -> tuple[str, bool, str]:
    return name, bool(ok), detail


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative names and bytes of every file under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def read_ppm(path: Path) -> np.ndarray:
    """Strict reader for the P6 files the program writes: (H, W, 3) uint8."""
    blob = Path(path).read_bytes()
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        raise ValueError(f"{path}: not an 8-bit P6 file")
    w, h = (int(v) for v in parts[1].split())
    payload = parts[3]
    if len(payload) != w * h * 3:
        raise ValueError(f"{path}: payload {len(payload)} bytes, expected {w * h * 3}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)


def luma255(rgb: np.ndarray) -> np.ndarray:
    rgb = rgb.astype(np.float64)
    return KR * rgb[..., 0] + KG * rgb[..., 1] + KB * rgb[..., 2]


def _dct_matrix() -> np.ndarray:
    n = np.arange(8)
    basis = np.cos(np.pi * (2 * n[None, :] + 1) * n[:, None] / 16.0)
    basis[0] *= math.sqrt(1.0 / 8.0)
    basis[1:] *= math.sqrt(2.0 / 8.0)
    return basis


_D = _dct_matrix()


def near_zero_ac_fraction(plane: np.ndarray, eps: float = 0.5) -> float:
    """Share of 8x8 block AC coefficients (8-bit scale) with |a| < eps.

    Files are stored on the 8-bit grid, which moves exact codec zeros off
    zero by up to a rounding step, so "zero" here means below half a code.
    """
    h8, w8 = (plane.shape[0] // 8) * 8, (plane.shape[1] // 8) * 8
    tiles = (plane[:h8, :w8] - 128.0).reshape(h8 // 8, 8, w8 // 8, 8).transpose(0, 2, 1, 3)
    coeffs = _D @ tiles @ _D.T
    ac = np.ones((8, 8), dtype=bool)
    ac[0, 0] = False
    return float(np.mean(np.abs(coeffs[:, :, ac]) < eps))


def top_third_rapsd(plane: np.ndarray, nbins: int = 32) -> float:
    """Mean radially averaged power over the top third of normalized frequencies."""
    plane = plane / 255.0
    plane = plane - plane.mean()
    spec = np.fft.fft2(plane)
    power = (spec.real**2 + spec.imag**2) / plane.size
    fy = np.fft.fftfreq(plane.shape[0])[:, None]
    fx = np.fft.fftfreq(plane.shape[1])[None, :]
    radius = np.sqrt(fx * fx + fy * fy)
    keep = (radius > 0.0) & (radius <= 0.5)
    idx = np.clip(np.ceil(radius[keep] / (0.5 / nbins)).astype(int) - 1, 0, nbins - 1)
    sums = np.bincount(idx, weights=power[keep], minlength=nbins)
    counts = np.bincount(idx, minlength=nbins)
    profile = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return float(profile[2 * (nbins // 3) :].mean())


def all_finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def csv_column(path: Path, column: str) -> list[float]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


# --- evaluate oracle ----------------------------------------------------------


def load_checkpoint_params(path: Path) -> dict[str, np.ndarray]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return {
        name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in doc["params"].items()
    }


def logits(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    h = np.maximum(x @ params["w1"] + params["b1"], 0.0)
    return h @ params["wc"] + params["bc"][0]


def _sigmoid(v: float) -> float:
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def _selected(n: int, t: int) -> list[int]:
    """Positions of ``t`` uniformly spaced frames out of ``n``, rounded half up."""
    t = min(t, n)
    centers = [(j + 0.5) * n / t - 0.5 for j in range(t)]
    return sorted({min(n - 1, int(math.floor(c + 0.5))) for c in centers})


def video_scores(params, records: list[dict], frames: int) -> list[tuple[float, int, str]]:
    """(score, label 0/1, subset) per video, by logit averaging over selected frames."""
    x = np.asarray([r["x"] for r in records], dtype=np.float64)
    z = logits(params, x)
    groups: dict[str, list] = {}
    for i, rec in enumerate(records):
        key = str(rec.get("video_id") or f"__single_{i}")
        groups.setdefault(key, []).append((int(rec.get("frame_index") or 0), float(z[i]), rec))
    out = []
    for members in groups.values():
        members.sort(key=lambda m: m[0])
        picked = [members[i][1] for i in _selected(len(members), frames)]
        score = min(1.0, max(0.0, _sigmoid(sum(picked) / len(picked))))
        first = members[0][2]
        out.append((score, 1 if first["label"] == "fake" else 0, first["subset"]))
    return out


def _brute_ap(scores: np.ndarray, labels: np.ndarray):
    n_pos = int(labels.sum())
    if n_pos == 0:
        return None
    ap, prev = 0.0, 0.0
    for t in np.unique(scores)[::-1]:
        sel = scores >= t
        tp = int(labels[sel].sum())
        recall = tp / n_pos
        ap += (recall - prev) * (tp / int(sel.sum()))
        prev = recall
    return float(ap)


def _row(name: str, scores: np.ndarray, labels: np.ndarray, thr: float) -> dict:
    pred = (scores >= thr).astype(int)
    n_fake = int(labels.sum())
    n_real = len(labels) - n_fake
    tp = int(np.sum((pred == 1) & (labels == 1)))
    tn = int(np.sum((pred == 0) & (labels == 0)))
    fp = int(np.sum((pred == 1) & (labels == 0)))
    fn = int(np.sum((pred == 0) & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return {
        "subset": name,
        "n_real": n_real,
        "n_fake": n_fake,
        "acc": (tp + tn) / len(labels),
        "balanced_acc": (tp * n_real + tn * n_fake) / (2 * n_fake * n_real)
        if n_fake and n_real else None,
        "ap": _brute_ap(scores, labels),
        "precision": precision,
        "recall": recall,
        "f1": 2 * precision * recall / (precision + recall) if precision + recall else 0.0,
    }


def report_oracle(preds: list[tuple[float, int, str]], threshold: float = 0.5) -> dict:
    scores = np.asarray([p[0] for p in preds])
    labels = np.asarray([p[1] for p in preds])
    subsets = np.asarray([p[2] for p in preds])
    rows = [
        _row(s, scores[subsets == s], labels[subsets == s], threshold)
        for s in sorted(set(subsets.tolist()))
    ]

    def mean(key):
        vals = [r[key] for r in rows if r[key] is not None]
        return sum(vals) / len(vals) if vals else None

    mean_row = {"subset": "mean_over_subsets",
                "n_real": sum(r["n_real"] for r in rows),
                "n_fake": sum(r["n_fake"] for r in rows)}
    for key in ("acc", "balanced_acc", "ap", "precision", "recall", "f1"):
        mean_row[key] = mean(key)
    return {
        "threshold": threshold,
        "headline": "subset-mean",
        "subsets": rows,
        "mean_over_subsets": mean_row,
        "overall_pooled": _row("overall_pooled", scores, labels, threshold),
    }


def report_mismatches(actual, expected, tol: float = 1e-9, where: str = "") -> list[str]:
    """Structural comparison: exact for strings and integers, ``tol`` for floats."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys differ"]
        return [m for k in expected for m in report_mismatches(
            actual[k], expected[k], tol, f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in report_mismatches(a, e, tol, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        return [] if abs(actual - expected) <= tol else [f"{where}: {actual} != {expected}"]
    return [] if actual == expected else [f"{where}: {actual!r} != {expected!r}"]
