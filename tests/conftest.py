"""Shared fixtures and image/manifest builders for the test suite."""

import json
from pathlib import Path

import numpy as np
import pytest

from xmodal.core import ImageBuffer, save_image


def gray_image(values) -> ImageBuffer:
    """1-channel buffer from a 2-d array."""
    arr = np.asarray(values, dtype=np.float64)
    return ImageBuffer(arr[None, :, :])


def rgb_image(r, g, b) -> ImageBuffer:
    return ImageBuffer(np.stack([np.asarray(r, dtype=np.float64),
                                 np.asarray(g, dtype=np.float64),
                                 np.asarray(b, dtype=np.float64)]))


def constant_rgb(value, h=8, w=8) -> ImageBuffer:
    plane = np.full((h, w), float(value))
    return rgb_image(plane, plane, plane)


def noise_image(seed, h=32, w=32, channels=1, lo=0.1, hi=0.9) -> ImageBuffer:
    rng = np.random.default_rng(seed)
    data = rng.uniform(lo, hi, size=(channels, h, w))
    return ImageBuffer(data)


def textured_image(seed, h=64, w=64, channels=1, noise_sigma=0.05) -> ImageBuffer:
    """Smooth gradient plus seeded Gaussian noise, safely inside [0.1, 0.9]."""
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
    base = 0.5 + 0.15 * np.sin(2 * np.pi * (xx * 2 + yy)) + 0.1 * (xx - 0.5)
    data = np.stack([base + rng.normal(0.0, noise_sigma, size=(h, w))
                     for _ in range(channels)])
    return ImageBuffer(np.clip(data, 0.1, 0.9))


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
