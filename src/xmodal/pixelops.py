"""Pixel-level preprocessing and degradation primitives.

Color conversion, 8-bit quantization, resize, blur and luma extraction: the
building blocks the degradation chains and the forensic analyses are
assembled from. Each public function checks an image's (c, h, w) float64
planes with core.check_planes and runs a private kernel on them, which
codecsim.apply_chain calls directly. All public functions are pure: one that
changes nothing returns a read-only view of its caller's planes. Rounding
everywhere is half-away-from-zero.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (KB, KG, KR, MAX_SIDE, MAX_SIGMA, Field, _bands, check_choice, check_fields,
                   check_planes)
from .errors import InputError

# "limited" is 8-bit TV range: luma codes 16..235, chroma 16..240
COLOR_RANGES = ("full", "limited")
# the blur and resize steps' rows of codecsim.STEP_FIELDS, which their public
# functions check too
PIXEL_STEP_FIELDS = {"motion_blur": (Field("length", "int", 1, MAX_SIDE, required=True),
                                     Field("angle_deg", "number", default=0.0)),
                     "gaussian_blur": (Field("sigma", "number", 0, MAX_SIGMA, required=True),),
                     "resize": (Field("shorter_side", "int", 1, MAX_SIDE, required=True),)}


def round_half_away(x: np.ndarray | float) -> np.ndarray:
    """Round to nearest integer, halves away from zero (codec convention)."""
    return _round_half_away_inplace(np.array(x, dtype=np.float64))[()]


def _scratch(buf: np.ndarray | None, shape: tuple) -> np.ndarray:
    """A float64 array of ``shape`` at the start of the flat workspace ``buf``, or a new one."""
    return np.empty(shape) if buf is None else buf[: math.prod(shape)].reshape(shape)


def _round_half_away_inplace(x: np.ndarray, scratch=None) -> np.ndarray:
    """round_half_away of a float64 array, written over ``x``; its temporary is in ``scratch``."""
    mag = np.abs(x, out=_scratch(scratch, x.shape))  # an array even when ``x`` is 0-d
    mag += 0.5
    np.floor(mag, out=mag)
    bits = np.bitwise_and(x.view(np.int64), -1 << 63, out=x.view(np.int64))  # x's sign bit
    bits |= mag.view(np.int64)  # mag's sign bit is 0, so this is copysign(mag, x), faster
    return x


def _bt601_luma(r: np.ndarray, g: np.ndarray, b: np.ndarray, out: np.ndarray,
                term=None) -> np.ndarray:
    """KR*r + KG*g + KB*b, summed left to right, into ``out``; ``term`` is scratch or None."""
    np.multiply(r, KR, out=out)
    term = np.multiply(g, KG, out=term)
    out += term
    np.multiply(b, KB, out=term)
    out += term
    return out


def rgb_to_ycbcr(img: np.ndarray, color_range: str = "full") -> np.ndarray:
    """BT.601 RGB -> YCbCr; neutral gray maps to Cb = Cr = 0.5.

    ``color_range`` is one of COLOR_RANGES. "limited" applies the 8-bit affine
    maps Y' = (16 + 219*Y)/255 and C' = (128 + 224*(C - 0.5))/255, so limited
    luma stays within [16/255, 235/255]. Output clamped to [0, 1].
    """
    check_choice(color_range, "color_range", COLOR_RANGES, "rgb_to_ycbcr: ")
    return _rgb_to_ycbcr(check_planes(img, (3,)), color_range)


def _rgb_to_ycbcr(data: np.ndarray, color_range: str, out=None, scratch=None) -> np.ndarray:
    """rgb_to_ycbcr's planes into ``out``, which may be ``data``; temporaries in ``scratch``."""
    out = np.clip(data, 0.0, 1.0, out=out)
    r, g, b = out
    y, term = _scratch(scratch, (2, *r.shape))
    _bt601_luma(r, g, b, y, term)
    # Cb takes G's plane and Cr takes B's once each is spent; Y takes R's last
    for plane, rgb, scale in ((out[1], b, 0.5 / (1.0 - KB)), (out[2], r, 0.5 / (1.0 - KR))):
        np.subtract(rgb, y, out=plane)
        plane *= scale
        plane += 0.5
    out[0] = y
    if color_range == "limited":
        out[0] *= 219.0
        out[0] += 16.0
        out[1:] -= 0.5
        out[1:] *= 224.0
        out[1:] += 128.0
        out /= 255.0
    return np.clip(out, 0.0, 1.0, out=out)


def ycbcr_to_rgb(img: np.ndarray, color_range: str = "full") -> np.ndarray:
    """Exact algebraic inverse of rgb_to_ycbcr, then clamped to [0, 1]."""
    check_choice(color_range, "color_range", COLOR_RANGES, "ycbcr_to_rgb: ")
    return _ycbcr_to_rgb(check_planes(img, (3,)), color_range)


def _ycbcr_to_rgb(data: np.ndarray, color_range: str, out=None, scratch=None) -> np.ndarray:
    """ycbcr_to_rgb's planes into ``out``, which may be ``data``; temporaries in ``scratch``."""
    out = np.empty_like(data) if out is None else out
    y, cb, cr = data
    if color_range == "limited":
        # limited-to-full affine maps into ``out``, which then holds Y, Cb, Cr
        np.multiply(data, 255.0, out=out)
        out[0] -= 16.0
        out[0] /= 219.0
        out[1:] -= 128.0
        out[1:] /= 224.0
        out[1:] += 0.5
        y, cb, cr = out
    r, b = _scratch(scratch, (2, *y.shape))
    np.subtract(cr, 0.5, out=r)
    r *= (1.0 - KR) / 0.5
    r += y
    np.subtract(cb, 0.5, out=b)
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
    return np.clip(out, 0.0, 1.0, out=out)


def quantize_8bit(img: np.ndarray) -> np.ndarray:
    """Snap every sample to the 8-bit grid: u -> round(255*u)/255."""
    return _quantize_8bit(check_planes(img))


def _quantize_8bit(data: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """quantize_8bit's planes, written into ``out``, which may be ``data``."""
    out = _round_half_away_inplace(np.multiply(data, 255.0, out=out), scratch)
    out /= 255.0
    return out


def shorter_side_resize(img: np.ndarray, shorter_side: int) -> np.ndarray:
    """Aspect-preserving resize so that min(width, height) == shorter_side, an
    integer checked against the ``resize`` step's row."""
    check_fields({"shorter_side": shorter_side}, PIXEL_STEP_FIELDS["resize"],
                 "shorter_side_resize: ")
    return _shorter_side_resize(check_planes(img), shorter_side)


def _shorter_side_resize(data: np.ndarray, target: int, out=None) -> np.ndarray:
    """Separable bilinear resample, half-pixel centers aligned, by bands of output rows."""
    c, in_h, in_w = data.shape
    if min(in_w, in_h) == target:
        return data
    s = target / min(in_w, in_h)
    out_w = target if in_w <= in_h else int(round_half_away(in_w * s))
    out_h = target if in_h <= in_w else int(round_half_away(in_h * s))
    if max(out_w, out_h) > MAX_SIDE:  # the size budget, checked before anything is allocated
        raise InputError(f"resizing {in_w}x{in_h} to shorter side {target} gives "
                         f"{out_w}x{out_h}, a side longer than {MAX_SIDE}")
    xs = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    ys = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    x1 = np.clip(x0 + 1, 0, in_w - 1)
    fx = np.clip(xs - x0, 0.0, 1.0)
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    y1 = np.clip(y0 + 1, 0, in_h - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[None, :, None]
    out = np.empty((c, out_h, out_w)) if out is None else out
    for band in _bands(out_h, out_w):
        # np.take keeps the gathered arrays C-contiguous, unlike fancy indexing
        mixed = np.take(data, y0[band], axis=1)
        mixed *= 1.0 - fy[:, band]
        far = np.take(data, y1[band], axis=1)
        far *= fy[:, band]
        mixed += far
        dst = out[:, band]
        np.multiply(np.take(mixed, x0, axis=2), 1.0 - fx, out=dst)
        far = np.take(mixed, x1, axis=2)
        far *= fx
        dst += far
    return out


def _fold(x: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Valid convolution of ``x`` along ``axis`` with symmetric odd-length ``taps``.

    out[i] = x[i]*w[c] + (x[i-j] + x[i+j])*w[c-j] for j = r down to 1, summed
    in that order: the folded form ndimage.convolve1d uses for a symmetric
    kernel, so the two agree bit for bit. The output is 2r shorter on ``axis``.
    """
    radius = len(taps) // 2
    n = x.shape[axis] - 2 * radius

    def shifted(offset: int) -> np.ndarray:
        index = [slice(None)] * x.ndim
        index[axis] = slice(radius + offset, radius + offset + n)
        return x[tuple(index)]

    out = np.multiply(shifted(0), taps[radius])
    pair = np.empty_like(out)
    for j in range(radius, 0, -1):
        np.add(shifted(-j), shifted(j), out=pair)
        pair *= taps[radius - j]
        out += pair
    return out


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur, kernel truncated at 3*sigma and renormalized.

    Borders are mirror-reflected (the edge pixel repeats); a plane narrower
    than the kernel radius is reflected back and forth.
    """
    check_fields({"sigma": sigma}, PIXEL_STEP_FIELDS["gaussian_blur"], "gaussian_blur: ")
    return _gaussian_blur(check_planes(img), sigma)


def _gaussian_blur(data: np.ndarray, sigma: float) -> np.ndarray:
    if sigma == 0:
        return data
    radius = int(math.ceil(3.0 * sigma))
    taps = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
    taps /= taps.sum()
    # the column pass also blurs the reflected margin columns, which equals
    # reflecting the column-blurred plane, so one pad serves both passes
    padded = np.pad(data, ((0, 0), (radius, radius), (radius, radius)), mode="symmetric")
    return _fold(_fold(padded, taps, axis=1), taps, axis=2)


def motion_blur_kernel(length: int, angle_deg: float) -> np.ndarray:
    """Length-L line kernel at the given angle, nearest-pixel rasterized.

    L sample points along the line get weight 1/L each; points that
    rasterize to the same pixel accumulate, so the kernel always sums to 1.
    """
    check_fields({"length": length, "angle_deg": angle_deg}, PIXEL_STEP_FIELDS["motion_blur"],
                 "motion_blur_kernel: ")
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


def motion_blur(img: np.ndarray, length: int, angle_deg: float = 0.0) -> np.ndarray:
    """Convolve with a straight-line kernel; length 1 is the identity.

    Borders are mirror-reflected, as in gaussian_blur, and the mirror repeats
    however far the taps reach (NumPy's "symmetric" pad). Each output pixel
    sums its nonzero taps in raveled order of the flipped kernel, the order
    ndimage.convolve uses, so the two agree bit for bit while the taps reach
    fewer than 4x the plane's side along each axis more than a pixel long.
    Past that they differ: the blur keeps the repeating mirror, and SciPy's
    "reflect" extension does not.
    """
    check_fields({"length": length, "angle_deg": angle_deg}, PIXEL_STEP_FIELDS["motion_blur"],
                 "motion_blur: ")
    return _motion_blur(check_planes(img), length, angle_deg)


def _motion_blur(data: np.ndarray, length: int, angle_deg: float = 0.0, out=None) -> np.ndarray:
    if length == 1:
        return data
    kernel = motion_blur_kernel(length, angle_deg)[::-1, ::-1]
    radius = kernel.shape[0] // 2
    rows, cols = np.nonzero(kernel)
    # pad only the axes the taps span: a horizontal kernel needs no row margin
    ry = int(np.max(np.abs(rows - radius)))
    rx = int(np.max(np.abs(cols - radius)))
    # (row, column) of each tap's window in a padded band, and its weight
    taps = [(r - radius + ry, c - radius + rx, kernel[r, c]) for r, c in zip(rows, cols)]
    _, h, w = data.shape
    stride = w + 2 * rx  # of a padded row
    # the plane row of each padded row; a padded row's margin columns and those they mirror
    row_of = np.pad(np.arange(h), ry, mode="symmetric")
    margin = np.r_[:rx, rx + w : stride]
    mirror = np.pad(np.arange(w), rx, mode="symmetric")[margin] + rx
    bands = _bands(h, w, ry + 1)  # band k reads bands k - 1, k and k + 1 only
    out = np.empty_like(data) if out is None else out
    padded = np.empty((min(h, bands[0].stop) + 2 * ry, stride))
    flat = padded.ravel()
    acc, term = np.empty((2, flat.size - 2 * ry * stride))
    # One band at a time is padded, and its taps and sums run over whole padded rows
    # as one flat run, which NumPy streams about 2x faster than (rows, w) views; the
    # 2*rx sums past each row's end are dropped. A band is written once the next one,
    # which reads ry of its rows, is padded, so ``out`` may be ``data``.
    for plane, dst in zip(data, out):
        for k, band in enumerate(bands):
            band_rows = row_of[band.start : min(band.stop, h) + 2 * ry]
            padded[: len(band_rows), rx : rx + w] = plane[band_rows]
            padded[: len(band_rows), margin] = padded[: len(band_rows), mirror]
            if k:
                dst[bands[k - 1]] = done
            n = len(band_rows) - 2 * ry
            size = n * stride - 2 * rx
            for i, (y, x, weight) in enumerate(taps):
                window = flat[y * stride + x :][:size]
                if i == 0:
                    np.multiply(window, weight, out=acc[:size])
                else:
                    np.multiply(window, weight, out=term[:size])
                    acc[:size] += term[:size]
            done = acc[: n * stride].reshape(n, stride)[:, :w]
        dst[bands[-1]] = done
    return out


def to_luma(img: np.ndarray) -> np.ndarray:
    """BT.601 full-range luma; grayscale input passes through unchanged."""
    return _to_luma(check_planes(img))


def _to_luma(data: np.ndarray) -> np.ndarray:
    if data.shape[0] == 1:
        return data
    out = np.empty((1,) + data.shape[1:])
    _bt601_luma(*data, out[0])
    return out


def _color_jitter(data: np.ndarray, b: float, c: float, s: float) -> np.ndarray:
    """Scale by ``b``, then pull toward the clamped image's mean luma by ``c`` and
    (color only) toward its clamped luma by ``s``; clamped to [0, 1]."""
    data = data * b
    mean = float(_to_luma(np.clip(data, 0.0, 1.0)).mean())
    data = data * c + (1.0 - c) * mean
    if data.shape[0] == 3:
        data = data * s + (1.0 - s) * _to_luma(np.clip(data, 0.0, 1.0))
    return np.clip(data, 0.0, 1.0)

