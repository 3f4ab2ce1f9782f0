"""Shared fixtures and image/manifest builders for the test suite."""

import json
from pathlib import Path

import numpy as np
import pytest

from xmodal.codecsim import apply_chain, chain_steps
from xmodal.core import save_image

# the benchmark's chain, and a chain that holds every step type
CANONICAL_CHAIN = {"steps": [
    {"step": "motion_blur", "length": 5, "angle_deg": 0.0},
    {"step": "resize", "shorter_side": 256},
    {"step": "jpeg", "quality": 75},
    {"step": "video_codec", "qstep": 16.0, "deadzone": 0.5},
]}
EVERY_STEP_CHAIN = {"steps": [
    {"step": "motion_blur", "length": 4, "angle_deg": 30.0},
    {"step": "gaussian_blur", "sigma": 1.3},
    {"step": "resize", "shorter_side": 100},
    {"step": "video_codec", "qstep": 9.0, "deadzone": 0.2},
    {"step": "quantize_8bit"},
    {"step": "jpeg", "quality": 50},
    {"step": "tv_range_squeeze"},
    {"step": "color_jitter", "brightness": [0.8, 1.2], "saturation": [0.5, 1.5]},
    {"step": "quantize_8bit"},
]}


def tv_range_squeezed(img) -> np.ndarray:
    """``img`` through the one-step ``tv_range_squeeze`` chain, which draws nothing."""
    steps = chain_steps({"steps": [{"step": "tv_range_squeeze"}]})
    return apply_chain(img, steps, np.random.default_rng(0))


def gray_image(values) -> np.ndarray:
    """1-channel planes from a 2-d array."""
    return np.array(values, dtype=np.float64)[None, :, :]


def rgb_image(r, g, b) -> np.ndarray:
    return np.stack([np.asarray(r, dtype=np.float64),
                     np.asarray(g, dtype=np.float64),
                     np.asarray(b, dtype=np.float64)])


def constant_rgb(value, h=8, w=8) -> np.ndarray:
    plane = np.full((h, w), float(value))
    return rgb_image(plane, plane, plane)


def noise_image(seed, h=32, w=32, channels=1, lo=0.1, hi=0.9) -> np.ndarray:
    return np.random.default_rng(seed).uniform(lo, hi, size=(channels, h, w))


def textured_image(seed, h=64, w=64, channels=1, noise_sigma=0.05) -> np.ndarray:
    """Smooth gradient plus seeded Gaussian noise, safely inside [0.1, 0.9]."""
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
    base = 0.5 + 0.15 * np.sin(2 * np.pi * (xx * 2 + yy)) + 0.1 * (xx - 0.5)
    data = np.stack([base + rng.normal(0.0, noise_sigma, size=(h, w))
                     for _ in range(channels)])
    return np.clip(data, 0.1, 0.9)


def write_manifest_file(path: Path, entries) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry) + "\n")
    return path


def write_chain_file(path: Path, *steps) -> Path:
    """A chain file holding ``steps``, as ``{"steps": [...]}``."""
    path.write_text(json.dumps({"steps": list(steps)}), encoding="utf-8")
    return path


@pytest.fixture
def image_dir(tmp_path):
    """Directory with a small corpus of PGM files plus a manifest."""
    entries = []
    for i in range(6):
        img = textured_image(seed=100 + i, h=32, w=32)
        p = tmp_path / f"img_{i}.pgm"
        save_image(img, p)
        entries.append(
            {
                "id": f"s{i}",
                "path": str(p),
                "label": "real" if i % 2 == 0 else "fake",
                "modality": "image",
                "subset": "synthetic",
            }
        )
    manifest_path = write_manifest_file(tmp_path / "manifest.jsonl", entries)
    return tmp_path, manifest_path
