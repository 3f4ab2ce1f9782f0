"""Distribution-shift analyses: DCT AC histograms, RAPSD, luminance range,
and mean residual power spectra.

These are the measurement tools that expose what video pipelines do to
image statistics: sharper near-zero AC peaks, high-frequency decay, and
comb-patterned luminance histograms.

The dataset reducers (``dct_ac_histogram``, ``dataset_mean_rapsd``,
``luminance_histogram``, ``residual_spectrum``) are plain folds that consume
per-image inputs once, in order; ``rapsd`` and ``residual_power`` are the
per-image steps of the two spectral folds. Loading a corpus, parallelism and
failure accounting belong to the CLI's corpus loop (``core.iter_samples``).
The results are plain arrays or named tuples of them, which nothing checks
again: the program computed them.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple

import numpy as np

from .codecsim import BLOCK, _shifted_coeffs
from .core import (WINDOWS, ZERO_EPS, Field, _fit_to_square, check_choice, check_fields,
                   check_planes)
from .errors import InputError
from .pixelops import gaussian_blur, to_luma


# the reducers' own bounds on their arguments (the CLI's --bins and --range rows are stricter)
REDUCER_FIELDS = (Field("nbins", "int", 1), Field("value_range", "number", 0, ends="(]"))


class DctAcResult(NamedTuple):
    """Counts over ``bin_edges``; the share below ZERO_EPS and number of all AC values."""

    bin_edges: np.ndarray
    counts: np.ndarray
    zero_fraction: float
    total_ac: int


class RadialProfile(NamedTuple):
    """Mean power per radial-frequency bin, radii normalized to (0, 0.5]."""

    radii: np.ndarray
    power: np.ndarray
    counts: np.ndarray


def require_dct_block(img: np.ndarray) -> np.ndarray:
    """``img``'s checked planes if they hold at least one whole 8x8 block, else raise."""
    data = check_planes(img)
    _, height, width = data.shape
    if height < BLOCK or width < BLOCK:
        raise InputError(f"need at least {BLOCK}x{BLOCK} pixels, got {width}x{height}")
    return data


def dct_ac_histogram(
    images: Iterable[np.ndarray],
    value_range: float = 64.0,
    nbins: int = 129,
) -> DctAcResult:
    """Pool the 63 AC coefficients of every 8x8 luma block.

    Coefficients are at 8-bit scale (luma*255 - 128 before the DCT). Bins
    are symmetric around zero over [-value_range, value_range];
    zero_fraction counts |a| < ZERO_EPS over all coefficients, in or out
    of the histogram range.
    """
    check_fields({"value_range": value_range, "nbins": nbins}, REDUCER_FIELDS,
                 "dct_ac_histogram: ")
    edges = np.linspace(-value_range, value_range, nbins + 1)
    counts = np.zeros(nbins, dtype=np.int64)
    total_ac = 0
    n_zero = 0
    ac_mask = np.ones((BLOCK, BLOCK), dtype=bool)
    ac_mask[0, 0] = False
    for img in images:
        data = require_dct_block(img)
        h8, w8 = (side // BLOCK * BLOCK for side in data.shape[1:])
        coeffs = _shifted_coeffs(to_luma(data)[0, :h8, :w8], 128.0)
        ac = coeffs.transpose(0, 2, 1, 3)[:, :, ac_mask].ravel()
        hist, _ = np.histogram(ac, bins=edges)
        counts += hist
        total_ac += ac.size
        n_zero += int(np.count_nonzero(np.abs(ac) < ZERO_EPS))
    if total_ac == 0:  # every image adds at least one block's 63 coefficients
        raise InputError("dct_ac_histogram needs at least one image")
    return DctAcResult(edges, counts, n_zero / total_ac, total_ac)


def rapsd(img: np.ndarray, window: str = "none", nbins: int = 32) -> RadialProfile:
    """Radially averaged power spectral density of the luma plane.

    Mean-subtracted, then windowed by ``window``, one of WINDOWS; power = |FFT|^2 / (W*H),
    binned by normalized radial frequency into nbins equal-width bins over
    (0, 0.5]. DC and corner frequencies beyond 0.5 are excluded.

    The plane is real, so only the ``rfft2`` half of its conjugate-symmetric
    spectrum is transformed, each frequency weighted for its mirror (see
    ``_radial_bins``). The counts equal the full plane's exactly; the power
    matches the full-plane form to about 1e-14 relative, not bit for bit.
    """
    check_choice(window, "window", WINDOWS, "rapsd: ")
    data = check_planes(img)
    _, height, width = data.shape
    if height < 16 or width < 16:
        raise InputError(f"rapsd needs at least 16x16 pixels, got {width}x{height}")
    check_fields({"nbins": nbins}, REDUCER_FIELDS, "rapsd: ")
    plane = to_luma(data)[0]
    plane = plane - plane.mean()
    if window == "hann":
        plane = plane * _hann_window(height, width)
    spectrum = np.fft.rfft2(plane)
    power = (spectrum.real**2 + spectrum.imag**2) / (width * height)
    mask, idx, weight, counts = _radial_bins(height, width, nbins)
    sums = np.bincount(idx, weights=power[mask] * weight, minlength=nbins)
    mean_power = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    radii = (np.arange(nbins) + 0.5) * (0.5 / nbins)
    return RadialProfile(radii=radii, power=mean_power, counts=counts)


@functools.lru_cache(maxsize=4)
def _radial_bins(height: int, width: int, nbins: int) -> tuple[np.ndarray, ...]:
    """rapsd's half-plane mask, per-frequency bin index and weight, and per-bin counts.

    The geometry is ``fftfreq(height)`` x ``rfftfreq(width)``, the frequencies
    of ``rfft2``. The weight is 1 in column 0 and, for an even width, in the
    Nyquist column, which hold their own mirrors, and 2 elsewhere, so the
    weighted ``counts`` equal the full plane's. They depend only on the shape
    and ``nbins``, so a corpus of equal-size frames builds them once. The
    arrays are shared, hence read-only.
    """
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.rfftfreq(width)[None, :]
    radius = np.sqrt(fx * fx + fy * fy)
    mask = (radius > 0.0) & (radius <= 0.5)
    idx = np.ceil(radius[mask] / (0.5 / nbins)).astype(int) - 1
    idx = np.clip(idx, 0, nbins - 1)
    columns = np.full(fx.shape[1], 2.0)
    columns[0] = 1.0
    if width % 2 == 0:
        columns[-1] = 1.0
    weight = np.broadcast_to(columns, mask.shape)[mask]
    counts = np.bincount(idx, weights=weight, minlength=nbins).astype(np.int64)
    for arr in (mask, idx, weight, counts):
        arr.setflags(write=False)
    return mask, idx, weight, counts


@functools.lru_cache(maxsize=4)
def _hann_window(height: int, width: int) -> np.ndarray:
    """rapsd's 2D Hann window, built once per shape like ``_radial_bins``; read-only."""
    window = np.outer(np.hanning(height), np.hanning(width))
    window.setflags(write=False)
    return window


def dataset_mean_rapsd(profiles: Iterable[RadialProfile]) -> RadialProfile:
    """Arithmetic mean of per-image RAPSD profiles, with their bin counts summed.

    The profiles must share radii; they are summed in iteration order.
    """
    power_sum = count_sum = 0
    n_used = 0
    for n_used, profile in enumerate(profiles, start=1):
        power_sum = power_sum + profile.power
        count_sum = count_sum + profile.counts
    if n_used == 0:
        raise InputError("dataset_mean_rapsd needs at least one profile")
    return RadialProfile(radii=profile.radii, power=power_sum / n_used, counts=count_sum)


def luminance_histogram(images: Iterable[np.ndarray]) -> np.ndarray:
    """Pool 8-bit-quantized luma codes of all pixels into 256 int64 counts,
    one per code. Each image is checked by ``to_luma``."""
    counts = np.zeros(256, dtype=np.int64)
    n_images = 0
    for img in images:
        # after the clip, round_half_away(luma*255) is floor(luma*255 + 0.5), an int cast
        codes = np.clip(to_luma(img)[0], 0.0, 1.0)
        codes *= 255.0
        codes += 0.5
        counts += np.bincount(codes.astype(np.intp).ravel(), minlength=256)
        n_images += 1
    if n_images == 0:
        raise InputError("luminance_histogram needs at least one image")
    return counts


TAIL_FULL_THRESHOLD = 0.01
COMB_THRESHOLD = 0.02


def detect_tv_range(counts: np.ndarray) -> tuple[str, float, float]:
    """Classify the 256 counts of a luma histogram as full range, limited, or
    unclear, returning ``(verdict, tail_mass, comb_score)`` with the verdict
    "full", "limited" or "indeterminate".

    tail_mass is the mass at codes [0,15] and [236,255]. comb_score is the
    fraction of empty bins inside the central mass window (5th..95th mass
    percentile codes, clipped to the first and last occupied codes within
    [16,235], so black bars or an unused tonal range are not read as gaps):
    rescaling limited-range codes over 256 slots leaves periodic gaps
    across the whole support, whereas
    natural sparse histograms only thin out at the support edges. A comb
    outranks tail evidence; content that never exercises the tails and
    shows no comb stays indeterminate (e.g. a constant image).
    """
    if len(counts) != 256:
        raise InputError(f"expected 256 bins, got {len(counts)}")
    total = int(counts.sum())
    if total == 0:
        raise InputError("histogram is empty")
    tail_mass = float((counts[:16].sum() + counts[236:].sum()) / total)
    cumulative = np.cumsum(counts)
    lo = int(np.searchsorted(cumulative, 0.05 * total))
    hi = int(np.searchsorted(cumulative, 0.95 * total))
    occupied = np.flatnonzero(counts[16:236]) + 16
    lo = max(lo, int(occupied.min(initial=236)))
    hi = min(hi, int(occupied.max(initial=15)))
    if hi > lo:
        window = counts[lo : hi + 1]
        comb_score = float(np.count_nonzero(window == 0) / len(window))
    else:
        comb_score = 0.0
    if comb_score > COMB_THRESHOLD:
        verdict = "limited"
    elif tail_mass > TAIL_FULL_THRESHOLD:
        verdict = "full"
    else:
        verdict = "indeterminate"
    return verdict, tail_mass, comb_score


def residual_power(img: np.ndarray, denoise_sigma: float = 1.0, size: int = 64) -> np.ndarray:
    """|FFT|^2 of one image's high-pass luma residual, as a (size, size) array.

    The luma plane is center-cropped to size x size (edge-padded first if
    smaller); the residual is that plane minus its Gaussian blur, a denoiser
    stand-in. The image is checked by ``to_luma``.
    """
    luma = _fit_to_square(to_luma(img)[0], size)
    blurred = gaussian_blur(luma[None, :, :], denoise_sigma)
    spectrum = np.fft.fft2(luma - blurred[0])
    return spectrum.real**2 + spectrum.imag**2


def residual_spectrum(powers: Iterable[np.ndarray]) -> np.ndarray:
    """Mean of ``residual_power`` spectra, log-scaled, DC shifted to the center.

    The spectra are summed in iteration order and reported as the
    (size, size) array log10(1 + mean_power).
    """
    acc = 0  # 0 + the first spectrum is a new array; the rest add into it in place
    n_used = 0
    for n_used, power in enumerate(powers, start=1):
        acc += power
    if n_used == 0:
        raise InputError("residual_spectrum needs at least one spectrum")
    return np.fft.fftshift(np.log10(1.0 + acc / n_used))
