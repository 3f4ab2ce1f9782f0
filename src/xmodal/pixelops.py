"""Pixel-level preprocessing and degradation primitives.

Color conversion, 8-bit quantization, resize, blur and luma extraction: the
building blocks the degradation chains and the forensic analyses are
assembled from.
All functions are pure; rounding everywhere is half-away-from-zero.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np
from scipy import ndimage

from .core import ImageBuffer
from .errors import EmptyImageError, WrongChannelCountError

# BT.601 luma coefficients
KR = 0.299
KG = 0.587
KB = 0.114


class ColorRange(Enum):
    FULL = "full"
    LIMITED = "limited"  # 8-bit luma codes 16..235, chroma 16..240


class Boundary(Enum):
    REFLECT = "reflect"
    CIRCULAR = "circular"


class Window(Enum):
    NONE = "none"
    HANN = "hann"


def round_half_away(x: np.ndarray | float) -> np.ndarray:
    """Round to nearest integer, halves away from zero (codec convention)."""
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def _clamp01(arr: np.ndarray) -> np.ndarray:
    return np.clip(arr, 0.0, 1.0)


def rgb_to_ycbcr(img: ImageBuffer, color_range: ColorRange = ColorRange.FULL) -> ImageBuffer:
    """BT.601 RGB -> YCbCr; neutral gray maps to Cb = Cr = 0.5.

    Limited range applies the 8-bit affine maps Y' = (16 + 219*Y)/255 and
    C' = (128 + 224*(C - 0.5))/255, so limited luma stays within
    [16/255, 235/255]. Output clamped to [0, 1].
    """
    if img.channels != 3:
        raise WrongChannelCountError(f"expected 3 channels, got {img.channels}")
    r, g, b = _clamp01(img.data)
    y = KR * r + KG * g + KB * b
    cb = (b - y) * (0.5 / (1.0 - KB)) + 0.5
    cr = (r - y) * (0.5 / (1.0 - KR)) + 0.5
    if color_range is ColorRange.LIMITED:
        y = (16.0 + 219.0 * y) / 255.0
        cb = (128.0 + 224.0 * (cb - 0.5)) / 255.0
        cr = (128.0 + 224.0 * (cr - 0.5)) / 255.0
    return ImageBuffer(_clamp01(np.stack([y, cb, cr])))


def ycbcr_to_rgb(img: ImageBuffer, color_range: ColorRange = ColorRange.FULL) -> ImageBuffer:
    """Exact algebraic inverse of rgb_to_ycbcr, then clamped to [0, 1]."""
    if img.channels != 3:
        raise WrongChannelCountError(f"expected 3 channels, got {img.channels}")
    y, cb, cr = img.data
    if color_range is ColorRange.LIMITED:
        y = (255.0 * y - 16.0) / 219.0
        cb = (255.0 * cb - 128.0) / 224.0 + 0.5
        cr = (255.0 * cr - 128.0) / 224.0 + 0.5
    r = y + (cr - 0.5) * ((1.0 - KR) / 0.5)
    b = y + (cb - 0.5) * ((1.0 - KB) / 0.5)
    g = (y - KR * r - KB * b) / KG
    return ImageBuffer(_clamp01(np.stack([r, g, b])))


def quantize_8bit(img: ImageBuffer) -> ImageBuffer:
    """Snap every sample to the 8-bit grid: u -> round(255*u)/255."""
    return ImageBuffer(round_half_away(img.data * 255.0) / 255.0)


def _bilinear_resize(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable bilinear resample with half-pixel center alignment."""
    c, in_h, in_w = data.shape
    sx = in_w / out_w
    sy = in_h / out_h
    xs = (np.arange(out_w) + 0.5) * sx - 0.5
    ys = (np.arange(out_h) + 0.5) * sy - 0.5
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    x1 = np.clip(x0 + 1, 0, in_w - 1)
    fx = np.clip(xs - x0, 0.0, 1.0)
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    y1 = np.clip(y0 + 1, 0, in_h - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)

    rows0 = data[:, y0, :]
    rows1 = data[:, y1, :]
    mixed_rows = rows0 * (1.0 - fy)[None, :, None] + rows1 * fy[None, :, None]
    cols0 = mixed_rows[:, :, x0]
    cols1 = mixed_rows[:, :, x1]
    return cols0 * (1.0 - fx)[None, None, :] + cols1 * fx[None, None, :]


def shorter_side_resize(img: ImageBuffer, target: int) -> ImageBuffer:
    """Aspect-preserving resize so that min(width, height) == target."""
    if target < 1:
        raise EmptyImageError(f"target side must be >= 1, got {target}")
    w, h = img.width, img.height
    if min(w, h) == target:
        return ImageBuffer(img.data)
    s = target / min(w, h)
    out_w = int(round_half_away(w * s))
    out_h = int(round_half_away(h * s))
    if w <= h:
        out_w = target
    if h <= w:
        out_h = target
    return ImageBuffer(_bilinear_resize(img.data, out_h, out_w))


_SCIPY_MODE = {Boundary.REFLECT: "reflect", Boundary.CIRCULAR: "wrap"}


def gaussian_blur(
    img: ImageBuffer, sigma: float, boundary: Boundary = Boundary.REFLECT
) -> ImageBuffer:
    """Separable Gaussian blur, kernel truncated at 3*sigma and renormalized."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return ImageBuffer(img.data)
    radius = int(math.ceil(3.0 * sigma))
    taps = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
    taps /= taps.sum()
    mode = _SCIPY_MODE[boundary]
    out = ndimage.convolve1d(img.data, taps, axis=1, mode=mode)
    out = ndimage.convolve1d(out, taps, axis=2, mode=mode)
    return ImageBuffer(out)


def motion_blur_kernel(length: int, angle_deg: float) -> np.ndarray:
    """Length-L line kernel at the given angle, nearest-pixel rasterized.

    L sample points along the line get weight 1/L each; points that
    rasterize to the same pixel accumulate, so the kernel always sums to 1.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    theta = math.radians(angle_deg)
    dx, dy = math.cos(theta), math.sin(theta)
    offsets = np.arange(length) - (length - 1) / 2.0
    px = round_half_away(offsets * dx).astype(int)
    py = round_half_away(offsets * dy).astype(int)
    radius = int(max(np.max(np.abs(px)), np.max(np.abs(py)), 0))
    kernel = np.zeros((2 * radius + 1, 2 * radius + 1))
    for x, y in zip(px, py):
        kernel[radius + y, radius + x] += 1.0 / length
    return kernel


def motion_blur(
    img: ImageBuffer,
    length: int,
    angle_deg: float = 0.0,
    boundary: Boundary = Boundary.REFLECT,
) -> ImageBuffer:
    """Convolve with a straight-line kernel; length 1 is the identity."""
    if length == 1:
        return ImageBuffer(img.data)
    kernel = motion_blur_kernel(length, angle_deg)
    mode = _SCIPY_MODE[boundary]
    out = np.stack(
        [ndimage.convolve(plane, kernel, mode=mode) for plane in img.data]
    )
    return ImageBuffer(out)


def to_luma(img: ImageBuffer) -> ImageBuffer:
    """BT.601 full-range luma; grayscale input passes through unchanged."""
    if img.channels == 1:
        return ImageBuffer(img.data)
    r, g, b = img.data
    return ImageBuffer((KR * r + KG * g + KB * b)[None, :, :])
