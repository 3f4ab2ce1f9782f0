"""Blockwise-DCT transform-coding simulators and declarative degradation chains.

Two quantizers are modeled on top of a shared orthonormal 8x8 DCT: a
JPEG-style integer-table quantizer and a video-codec-style uniform deadzone
quantizer. ChainSpec composes them with the pixel primitives into a
blur -> resize -> codec -> color pipeline.

The simulators are approximations: no entropy coding, no chroma
subsampling, no inter-frame prediction. HEIF/WebP-style compression is
represented by deadzone-quantizer presets, not real encoders.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Union

import numpy as np

from .core import ImageBuffer
from .errors import (
    EmptyChainDrawnError,
    InvalidRangeError,
    QualityOutOfRangeError,
    UnknownStepError,
    XmodalError,
)
from .pixelops import (
    ColorRange,
    _round_half_away_inplace,
    gaussian_blur,
    motion_blur,
    quantize_8bit,
    rgb_to_ycbcr,
    round_half_away,
    shorter_side_resize,
    to_luma,
    ycbcr_to_rgb,
)

# --- 8x8 orthonormal DCT-II ---------------------------------------------------

BLOCK = 8


def _dct_matrix() -> np.ndarray:
    n = np.arange(BLOCK)
    basis = np.cos(np.pi * (2.0 * n[None, :] + 1.0) * n[:, None] / (2.0 * BLOCK))
    scale = np.full(BLOCK, math.sqrt(2.0 / BLOCK))
    scale[0] = math.sqrt(1.0 / BLOCK)
    return basis * scale[:, None]


_DCT = _dct_matrix()


def dct8x8_forward(pixels: np.ndarray) -> np.ndarray:
    """Orthonormal 2D DCT-II of one 8x8 block."""
    block = np.asarray(pixels, dtype=np.float64)
    if block.shape != (BLOCK, BLOCK):
        raise ValueError(f"expected an 8x8 block, got shape {block.shape}")
    return _DCT @ block @ _DCT.T


def dct8x8_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Exact inverse of dct8x8_forward (round trip error <= 1e-10)."""
    block = np.asarray(coeffs, dtype=np.float64)
    if block.shape != (BLOCK, BLOCK):
        raise ValueError(f"expected an 8x8 block, got shape {block.shape}")
    return _DCT.T @ block @ _DCT


# --- quantizers ---------------------------------------------------------------

# ITU-T T.81 Annex K example tables
JPEG_LUMA_BASE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)

JPEG_CHROMA_BASE = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.int64,
)


@dataclass(frozen=True)
class QuantTable:
    """8x8 positive-integer quantization table, optionally tagged with its Q."""

    table: np.ndarray
    quality: int | None = None

    def __post_init__(self):
        tbl = np.ascontiguousarray(self.table, dtype=np.int64)
        if tbl.shape != (BLOCK, BLOCK):
            raise ValueError(f"table must be 8x8, got {tbl.shape}")
        if tbl.min() < 1 or tbl.max() > 255:
            raise ValueError("table entries must lie in [1, 255]")
        tbl.setflags(write=False)
        object.__setattr__(self, "table", tbl)


def quant_table_from_quality(quality: int, channel: str = "luma") -> QuantTable:
    """Scale the standard base table by the reference quality convention.

    scale = 5000/Q for Q < 50, else 200 - 2Q;
    entry = clamp(floor((base*scale + 50)/100), 1, 255).
    """
    if not 1 <= quality <= 100:
        raise QualityOutOfRangeError(f"quality must lie in [1, 100], got {quality}")
    if channel not in ("luma", "chroma"):
        raise ValueError(f"channel must be 'luma' or 'chroma', got {channel!r}")
    base = JPEG_LUMA_BASE if channel == "luma" else JPEG_CHROMA_BASE
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    scaled = (base * scale + 50) // 100
    return QuantTable(np.clip(scaled, 1, 255), quality=quality)


# the public quantizers view their (..., 8, 8) blocks as (..., 8, 1, 8): a
# plane one block wide, in the (nby, 8, nbx, 8) layout of the block DCT
def quantize_coefficients(coeffs: np.ndarray, table: QuantTable) -> np.ndarray:
    """Divide (..., 8, 8) blocks by the table and round half-away-from-zero."""
    return _quantize_inplace(np.array(coeffs, dtype=np.float64)[..., None, :], table)[..., 0, :]


def dequantize_coefficients(indices: np.ndarray, table: QuantTable) -> np.ndarray:
    return _dequantize_inplace(np.array(indices, dtype=np.float64)[..., None, :], table)[..., 0, :]


def _quantize_inplace(coeffs: np.ndarray, table: QuantTable) -> np.ndarray:
    """quantize_coefficients written over (nby, 8, nbx, 8) float64 ``coeffs``."""
    coeffs /= table.table[:, None, :]
    return _round_half_away_inplace(coeffs)


def _dequantize_inplace(indices: np.ndarray, table: QuantTable) -> np.ndarray:
    """dequantize_coefficients written over (nby, 8, nbx, 8) float64 ``indices``."""
    indices *= table.table[:, None, :]
    return indices


@dataclass(frozen=True)
class VideoQuantModel:
    """Uniform deadzone quantizer standing in for video-codec quantization.

    qstep is the step at 8-bit coefficient scale; deadzone is the fraction
    of qstep below which AC coefficients are zeroed outright.
    """

    qstep: float
    deadzone: float = 0.0

    def __post_init__(self):
        if not self.qstep > 0:
            raise ValueError(f"qstep must be > 0, got {self.qstep}")
        if not 0.0 <= self.deadzone < 1.0:
            raise ValueError(f"deadzone must lie in [0, 1), got {self.deadzone}")


def deadzone_quantize_block(coeffs: np.ndarray, model: VideoQuantModel) -> np.ndarray:
    """Reconstruction values of one coefficient block under the deadzone rule.

    DC gets a plain round; AC is zeroed inside deadzone*qstep, otherwise
    rounded to the nearest multiple of qstep.
    """
    rec = _deadzone_quantize_inplace(np.array(coeffs, dtype=np.float64)[..., None, :], model)
    return rec[..., 0, :]


def _deadzone_quantize_inplace(coeffs: np.ndarray, model: VideoQuantModel) -> np.ndarray:
    """deadzone_quantize_block written over (nby, 8, nbx, 8) float64 ``coeffs``."""
    q = model.qstep
    dead = np.abs(coeffs) < model.deadzone * q
    dead[..., 0, :, 0] = False  # DC is exempt from the deadzone
    coeffs /= q
    _round_half_away_inplace(coeffs)
    coeffs *= q
    np.copyto(coeffs, 0.0, where=dead)
    return coeffs


# --- image-level simulators -----------------------------------------------------


LUMA_OFFSET = 128.0
CHROMA_OFFSET = 127.5  # chroma neutral is 0.5 in float, i.e. 127.5 at 8-bit scale


def _shifted_coeffs(plane: np.ndarray, offset: float) -> np.ndarray:
    """Block DCT of one channel at 8-bit scale, level-shifted by ``-offset``.

    The shifted plane is written into a buffer edge-padded to a multiple of 8.
    Its coefficients keep that buffer's layout, shape (nby, 8, nbx, 8):
    coefficient (u, v) of block (a, b) sits at [a, u, b, v]. One matmul sums
    over the rows of each block, a second over its columns, in that order:
    the other order differs in the last bit.
    """
    h, w = plane.shape
    nby, nbx = -(-h // BLOCK), -(-w // BLOCK)
    padded = np.empty((nby * BLOCK, nbx * BLOCK))
    shifted = np.multiply(plane, 255.0, out=padded[:h, :w])
    shifted -= offset
    padded[:h, w:] = shifted[:, -1:]
    padded[h:] = padded[h - 1]
    coeffs = np.matmul(_DCT, padded.reshape(nby, BLOCK, nbx * BLOCK))
    flat = coeffs.reshape(-1, BLOCK)
    np.matmul(flat, _DCT.T, out=flat)
    return coeffs.reshape(nby, BLOCK, nbx, BLOCK)


def _reconstruct(coeffs: np.ndarray, offset: float, out: np.ndarray) -> None:
    """Inverse of _shifted_coeffs (rows, then columns) into the [0, 1]-scale plane ``out``."""
    nby, _, nbx, _ = coeffs.shape
    plane = np.matmul(_DCT.T, coeffs.reshape(nby, BLOCK, nbx * BLOCK))
    flat = plane.reshape(-1, BLOCK)
    np.matmul(flat, _DCT, out=flat)
    h, w = out.shape
    np.add(plane.reshape(nby * BLOCK, nbx * BLOCK)[:h, :w], offset, out=out)
    out /= 255.0


def jpeg_simulate(
    img: ImageBuffer, quality: int, quantize_output: bool = True
) -> ImageBuffer:
    """JPEG-style transform coding round trip at the given quality.

    Full-range YCbCr, 4:4:4 (no chroma subsampling), blockwise level-shifted
    DCT, integer-table quantization, inverse, back to RGB. With
    ``quantize_output`` the result is snapped to the 8-bit grid like a
    decoded file; pass False to keep the float reconstruction, which
    preserves exactly-zero AC coefficients for analysis.
    """
    # color input goes through full-range YCbCr; chroma is shifted by its
    # neutral so a neutral-gray image has exactly-zero chroma coefficients
    was_color = img.channels == 3
    planes = rgb_to_ycbcr(img, ColorRange.FULL).data if was_color else img.data
    luma = quant_table_from_quality(quality, "luma")
    chroma = quant_table_from_quality(quality, "chroma")
    offsets = (LUMA_OFFSET, CHROMA_OFFSET, CHROMA_OFFSET)
    out = np.empty_like(planes)
    for plane, offset, table, dst in zip(planes, offsets, (luma, chroma, chroma), out):
        indices = _quantize_inplace(_shifted_coeffs(plane, offset), table)
        _reconstruct(_dequantize_inplace(indices, table), offset, dst)
    if was_color:
        result = ycbcr_to_rgb(ImageBuffer(out), ColorRange.FULL)
    else:
        result = ImageBuffer(np.clip(out, 0.0, 1.0, out=out))
    if quantize_output:
        result = quantize_8bit(result)
    return result


def video_codec_simulate(img: ImageBuffer, model: VideoQuantModel) -> ImageBuffer:
    """Deadzone-quantize the 8x8 DCT of every channel; float reconstruction.

    Unlike jpeg_simulate this works directly on the stored channels and
    skips the final 8-bit snap, approximating a codec's internal
    reconstruction rather than a decoded file.
    """
    out = np.empty_like(img.data)
    for plane, dst in zip(img.data, out):
        coeffs = _deadzone_quantize_inplace(_shifted_coeffs(plane, 128.0), model)
        _reconstruct(coeffs, 128.0, dst)
    return ImageBuffer(np.clip(out, 0.0, 1.0, out=out))


def tv_range_squeeze(img: ImageBuffer) -> ImageBuffer:
    """Round trip through 8-bit limited-range coding and back to full range.

    Stretching the 219 limited luma codes back over 256 slots leaves
    periodic empty histogram bins: the comb signature of TV-range video.
    """
    if img.channels == 3:
        limited = quantize_8bit(rgb_to_ycbcr(img, ColorRange.LIMITED))
        return quantize_8bit(ycbcr_to_rgb(limited, ColorRange.LIMITED))
    y = np.clip(img.data, 0.0, 1.0)
    y = round_half_away(((16.0 + 219.0 * y) / 255.0) * 255.0) / 255.0
    y = np.clip((255.0 * y - 16.0) / 219.0, 0.0, 1.0)
    y = round_half_away(y * 255.0) / 255.0
    return ImageBuffer(y)


# --- declarative degradation chains ----------------------------------------------

# The size budget of a chain step: no step makes an image side, or a blur
# kernel's side, longer than MAX_SIDE pixels. A line kernel of `length` samples
# spans at most `length` pixels, and a Gaussian one 2*ceil(3*sigma) + 1.
MAX_SIDE = 1 << 12
MAX_SIGMA = (MAX_SIDE - 1) // 6


@dataclass(frozen=True)
class MotionBlurStep:
    length: int
    angle_deg: float = 0.0

    def __post_init__(self):
        if not 1 <= self.length <= MAX_SIDE:
            raise InvalidRangeError(f"length must lie in [1, {MAX_SIDE}], got {self.length}")

    def apply(self, img: ImageBuffer, rng: np.random.Generator) -> ImageBuffer:
        return motion_blur(img, self.length, self.angle_deg)


@dataclass(frozen=True)
class GaussianBlurStep:
    sigma: float

    def __post_init__(self):
        if not 0 <= self.sigma <= MAX_SIGMA:
            raise InvalidRangeError(f"sigma must lie in [0, {MAX_SIGMA}], got {self.sigma}")

    def apply(self, img: ImageBuffer, rng: np.random.Generator) -> ImageBuffer:
        return gaussian_blur(img, self.sigma)


@dataclass(frozen=True)
class ResizeStep:
    shorter_side: int

    def __post_init__(self):
        if not 1 <= self.shorter_side <= MAX_SIDE:
            raise InvalidRangeError(
                f"shorter_side must lie in [1, {MAX_SIDE}], got {self.shorter_side}"
            )

    def apply(self, img: ImageBuffer, rng: np.random.Generator) -> ImageBuffer:
        return shorter_side_resize(img, self.shorter_side)


@dataclass(frozen=True)
class JpegSimStep:
    quality: int

    def __post_init__(self):
        if not 1 <= self.quality <= 100:
            raise InvalidRangeError(f"quality must lie in [1, 100], got {self.quality}")

    def apply(self, img: ImageBuffer, rng: np.random.Generator) -> ImageBuffer:
        return jpeg_simulate(img, self.quality)


@dataclass(frozen=True)
class VideoCodecSimStep:
    qstep: float
    deadzone: float = 0.0

    def __post_init__(self):
        VideoQuantModel(self.qstep, self.deadzone)  # domain check

    def apply(self, img: ImageBuffer, rng: np.random.Generator) -> ImageBuffer:
        return video_codec_simulate(img, VideoQuantModel(self.qstep, self.deadzone))


@dataclass(frozen=True)
class TvRangeSqueezeStep:
    def apply(self, img: ImageBuffer, rng: np.random.Generator) -> ImageBuffer:
        return tv_range_squeeze(img)


@dataclass(frozen=True)
class Quantize8BitStep:
    def apply(self, img: ImageBuffer, rng: np.random.Generator) -> ImageBuffer:
        return quantize_8bit(img)


@dataclass(frozen=True)
class ColorJitterStep:
    """Random brightness/contrast/saturation factors, each uniform in range."""

    brightness: tuple[float, float] = (1.0, 1.0)
    contrast: tuple[float, float] = (1.0, 1.0)
    saturation: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        for name in ("brightness", "contrast", "saturation"):
            lo, hi = pair = tuple(getattr(self, name))
            object.__setattr__(self, name, pair)
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi or lo < 0:
                raise InvalidRangeError(f"{name} range must satisfy 0 <= lo <= hi, got {pair}")

    def apply(self, img: ImageBuffer, rng: np.random.Generator) -> ImageBuffer:
        b = float(rng.uniform(*self.brightness))
        c = float(rng.uniform(*self.contrast))
        s = float(rng.uniform(*self.saturation))
        data = img.data * b
        mean = float(to_luma(ImageBuffer(np.clip(data, 0.0, 1.0))).data.mean())
        data = data * c + (1.0 - c) * mean
        if img.channels == 3:
            luma = to_luma(ImageBuffer(np.clip(data, 0.0, 1.0))).data
            data = data * s + (1.0 - s) * luma
        return ImageBuffer(np.clip(data, 0.0, 1.0))


_STEP_NAMES: dict[type, str] = {
    MotionBlurStep: "motion_blur",
    GaussianBlurStep: "gaussian_blur",
    ResizeStep: "resize",
    JpegSimStep: "jpeg",
    VideoCodecSimStep: "video_codec",
    TvRangeSqueezeStep: "tv_range_squeeze",
    ColorJitterStep: "color_jitter",
    Quantize8BitStep: "quantize_8bit",
}
_STEP_TYPES = {name: cls for cls, name in _STEP_NAMES.items()}
ChainStep = Union[tuple(_STEP_NAMES)]


_KIND_TEXT = {"int": "an integer", "float": "a number", "tuple[float, float]": "a pair of numbers"}


def _json_fits(value, kind: str) -> bool:
    """Whether a chain-file value fits a step field annotated ``kind``. JSON
    true/false would pass as the ints 1/0, and Python's JSON reader takes NaN."""
    if kind == "tuple[float, float]":
        return isinstance(value, list) and len(value) == 2 and all(
            _json_fits(v, "float") for v in value
        )
    number = (int,) if kind == "int" else (int, float)
    return isinstance(value, number) and not isinstance(value, bool) and abs(value) < math.inf


@dataclass(frozen=True)
class ChainSpec:
    """Ordered, validated list of degradation steps."""

    steps: tuple[ChainStep, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise EmptyChainDrawnError("chain must contain at least one step")

    def to_json(self) -> str:
        docs = []
        for step in self.steps:
            doc: dict = {"step": _STEP_NAMES[type(step)]}
            for key, value in vars(step).items():
                doc[key] = list(value) if isinstance(value, tuple) else value
            docs.append(doc)
        return json.dumps({"steps": docs}, indent=2, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ChainSpec":
        doc = json.loads(text)
        if not isinstance(doc, dict) or not isinstance(doc.get("steps"), list):
            raise InvalidRangeError("chain document must be {'steps': [...]}")
        steps = []
        for i, entry in enumerate(doc["steps"]):
            if not isinstance(entry, dict) or "step" not in entry:
                raise InvalidRangeError(f"step {i}: bad chain step entry: {entry!r}")
            name = entry["step"]
            if name not in _STEP_TYPES:
                raise UnknownStepError(name)
            kwargs = {k: v for k, v in entry.items() if k != "step"}
            try:
                for field in fields(_STEP_TYPES[name]):
                    value = kwargs.get(field.name)
                    if field.name in kwargs and not _json_fits(value, field.type):
                        what = _KIND_TEXT[field.type]
                        raise InvalidRangeError(f"{field.name!r} must be {what}, got {value!r}")
                steps.append(_STEP_TYPES[name](**kwargs))
            # a missing or unknown key is a TypeError of the constructor
            except (XmodalError, ValueError, TypeError) as exc:
                raise InvalidRangeError(f"step {i} {name!r}: {exc}") from None
        return cls(tuple(steps))

    @classmethod
    def load(cls, path: str | Path) -> "ChainSpec":
        try:
            return cls.from_json(Path(path).read_text(encoding="utf-8"))
        except (XmodalError, ValueError) as exc:
            raise XmodalError(f"{path}: {exc}") from None


def apply_chain(
    img: ImageBuffer, chain: ChainSpec, rng: np.random.Generator
) -> ImageBuffer:
    """Apply the steps in order; randomized steps draw from rng."""
    out = img
    for step in chain.steps:
        out = step.apply(out, rng)
    return out


def derive_sample_seed(master_seed: int, sample_id: str) -> int:
    """Stable per-sample seed, so parallel corpus order cannot change outputs."""
    digest = hashlib.sha256(f"{master_seed}:{sample_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
