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


class Window(Enum):
    NONE = "none"
    HANN = "hann"


def round_half_away(x: np.ndarray | float) -> np.ndarray:
    """Round to nearest integer, halves away from zero (codec convention)."""
    return _round_half_away_inplace(np.array(x, dtype=np.float64))[()]


def _round_half_away_inplace(x: np.ndarray) -> np.ndarray:
    """round_half_away of a float64 array, written over ``x``; returns ``x``."""
    mag = np.abs(x, out=np.empty_like(x))  # an array even when ``x`` is 0-d
    mag += 0.5
    np.floor(mag, out=mag)
    return np.copysign(mag, x, out=x)


def _bt601_luma(r: np.ndarray, g: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """KR*r + KG*g + KB*b, summed left to right, written into ``out``."""
    np.multiply(r, KR, out=out)
    term = np.multiply(g, KG)
    out += term
    np.multiply(b, KB, out=term)
    out += term
    return out


def rgb_to_ycbcr(img: ImageBuffer, color_range: ColorRange = ColorRange.FULL) -> ImageBuffer:
    """BT.601 RGB -> YCbCr; neutral gray maps to Cb = Cr = 0.5.

    Limited range applies the 8-bit affine maps Y' = (16 + 219*Y)/255 and
    C' = (128 + 224*(C - 0.5))/255, so limited luma stays within
    [16/255, 235/255]. Output clamped to [0, 1].
    """
    if img.channels != 3:
        raise WrongChannelCountError(f"expected 3 channels, got {img.channels}")
    out = np.clip(img.data, 0.0, 1.0)
    r, g, b = out
    y = _bt601_luma(r, g, b, np.empty_like(r))
    # Cb takes G's plane and Cr takes B's once each is spent; Y takes R's last
    for plane, rgb, scale in ((out[1], b, 0.5 / (1.0 - KB)), (out[2], r, 0.5 / (1.0 - KR))):
        np.subtract(rgb, y, out=plane)
        plane *= scale
        plane += 0.5
    out[0] = y
    if color_range is ColorRange.LIMITED:
        out[0] *= 219.0
        out[0] += 16.0
        out[1:] -= 0.5
        out[1:] *= 224.0
        out[1:] += 128.0
        out /= 255.0
    return ImageBuffer(np.clip(out, 0.0, 1.0, out=out))


def ycbcr_to_rgb(img: ImageBuffer, color_range: ColorRange = ColorRange.FULL) -> ImageBuffer:
    """Exact algebraic inverse of rgb_to_ycbcr, then clamped to [0, 1]."""
    if img.channels != 3:
        raise WrongChannelCountError(f"expected 3 channels, got {img.channels}")
    out = np.empty_like(img.data)
    y, cb, cr = img.data
    if color_range is ColorRange.LIMITED:
        # limited-to-full affine maps into ``out``, which then holds Y, Cb, Cr
        np.multiply(img.data, 255.0, out=out)
        out[0] -= 16.0
        out[0] /= 219.0
        out[1:] -= 128.0
        out[1:] /= 224.0
        out[1:] += 0.5
        y, cb, cr = out
    r = np.subtract(cr, 0.5)
    r *= (1.0 - KR) / 0.5
    r += y
    b = np.subtract(cb, 0.5)
    b *= (1.0 - KB) / 0.5
    b += y
    # Cb and Cr are spent, so their planes take G and a scratch term
    g, term = out[1], out[2]
    np.multiply(r, KR, out=g)
    np.subtract(y, g, out=g)
    np.multiply(b, KB, out=term)
    g -= term
    g /= KG
    out[0] = r
    out[2] = b
    return ImageBuffer(np.clip(out, 0.0, 1.0, out=out))


def quantize_8bit(img: ImageBuffer) -> ImageBuffer:
    """Snap every sample to the 8-bit grid: u -> round(255*u)/255."""
    out = _round_half_away_inplace(img.data * 255.0)
    out /= 255.0
    return ImageBuffer(out)


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

    # np.take keeps the gathered arrays C-contiguous, unlike fancy indexing
    mixed = np.take(data, y0, axis=1)
    mixed *= (1.0 - fy)[None, :, None]
    far = np.take(data, y1, axis=1)
    far *= fy[None, :, None]
    mixed += far
    out = np.take(mixed, x0, axis=2)
    out *= (1.0 - fx)[None, None, :]
    far = np.take(mixed, x1, axis=2)
    far *= fx[None, None, :]
    out += far
    return out


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


def gaussian_blur(img: ImageBuffer, sigma: float) -> ImageBuffer:
    """Separable Gaussian blur, kernel truncated at 3*sigma and renormalized.

    Borders are mirror-reflected (scipy's ``reflect``: the edge pixel repeats).
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return ImageBuffer(img.data)
    radius = int(math.ceil(3.0 * sigma))
    taps = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
    taps /= taps.sum()
    out = ndimage.convolve1d(img.data, taps, axis=1, mode="reflect")
    out = ndimage.convolve1d(out, taps, axis=2, mode="reflect")
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


def motion_blur(img: ImageBuffer, length: int, angle_deg: float = 0.0) -> ImageBuffer:
    """Convolve with a straight-line kernel; length 1 is the identity.

    Borders are mirror-reflected, as in gaussian_blur.
    """
    if length == 1:
        return ImageBuffer(img.data)
    kernel = motion_blur_kernel(length, angle_deg)
    out = np.empty_like(img.data)
    for plane, dst in zip(img.data, out):
        ndimage.convolve(plane, kernel, output=dst, mode="reflect")
    return ImageBuffer(out)


def to_luma(img: ImageBuffer) -> ImageBuffer:
    """BT.601 full-range luma; grayscale input passes through unchanged."""
    if img.channels == 1:
        return ImageBuffer(img.data)
    r, g, b = img.data
    out = np.empty((1, img.height, img.width))
    _bt601_luma(r, g, b, out[0])
    return ImageBuffer(out)
