"""The pixel kernels that write into their outputs match their allocating forms bit for bit.

Each ``ref_*`` function below is the earlier, allocating expression of a kernel,
kept verbatim as the reference; the blurs and the BCE gradient, which once
called SciPy, keep those SciPy calls as theirs, and the block DCT keeps its
einsum form. Every comparison is ``np.array_equal`` on seeded random frames,
at odd sizes, with 1 and 3 channels. The one exception is ``rapsd``'s power:
it sums the real-input half spectrum where ``ref_rapsd`` sums the full
``fft2`` plane, so it is held to ``RAPSD_RTOL`` per bin instead. A chain
from a frame's 8-bit codes, which runs its channel-wise steps a plane at a
time, is held to the same bytes as the chain from the frame's image.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage
from scipy.special import expit

from xmodal import cli, cmsupcon, forensics
from xmodal.codecsim import (
    CHANNELWISE,
    STEP_FIELDS,
    _DCT,
    _KERNELS,
    _jpeg_simulate,
    _reconstruct,
    _shifted_coeffs,
    _video_codec_simulate,
    apply_chain,
    chain_steps,
    deadzone_quantize_block,
    jpeg_simulate,
    quant_table_from_quality,
    quantize_coefficients,
    video_codec_simulate,
)
from xmodal.cmsupcon import bce_grad
from xmodal.core import (_fit_to_square, load_codes, load_image, load_luma,
                         save_image)
from xmodal.errors import InputError
from xmodal.forensics import dct_ac_histogram, luminance_histogram, rapsd
from xmodal.pixelops import (
    KB,
    KG,
    KR,
    _bands,
    _motion_blur,
    gaussian_blur,
    motion_blur,
    motion_blur_kernel,
    quantize_8bit,
    rgb_to_ycbcr,
    round_half_away,
    shorter_side_resize,
    to_luma,
    ycbcr_to_rgb,
)

from conftest import CANONICAL_CHAIN, EVERY_STEP_CHAIN, tv_range_squeezed, write_manifest_file

# --- reference implementations ----------------------------------------------


def ref_round_half_away(x):
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def ref_clamp01(arr):
    return np.clip(arr, 0.0, 1.0)


def ref_rgb_to_ycbcr(data, color_range):
    r, g, b = ref_clamp01(data)
    y = KR * r + KG * g + KB * b
    cb = (b - y) * (0.5 / (1.0 - KB)) + 0.5
    cr = (r - y) * (0.5 / (1.0 - KR)) + 0.5
    if color_range == "limited":
        y = (16.0 + 219.0 * y) / 255.0
        cb = (128.0 + 224.0 * (cb - 0.5)) / 255.0
        cr = (128.0 + 224.0 * (cr - 0.5)) / 255.0
    return ref_clamp01(np.stack([y, cb, cr]))


def ref_ycbcr_to_rgb(data, color_range):
    y, cb, cr = data
    if color_range == "limited":
        y = (255.0 * y - 16.0) / 219.0
        cb = (255.0 * cb - 128.0) / 224.0 + 0.5
        cr = (255.0 * cr - 128.0) / 224.0 + 0.5
    r = y + (cr - 0.5) * ((1.0 - KR) / 0.5)
    b = y + (cb - 0.5) * ((1.0 - KB) / 0.5)
    g = (y - KR * r - KB * b) / KG
    return ref_clamp01(np.stack([r, g, b]))


def ref_quantize_8bit(data):
    return ref_round_half_away(data * 255.0) / 255.0


def ref_bilinear_resize(data, out_h, out_w):
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


def ref_motion_blur(data, length, angle_deg):
    kernel = motion_blur_kernel(length, angle_deg)
    return np.stack(
        [ndimage.convolve(plane, kernel, mode="reflect") for plane in data]
    )


def ref_gaussian_blur(data, sigma):
    radius = int(math.ceil(3.0 * sigma))
    taps = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
    taps /= taps.sum()
    out = ndimage.convolve1d(data, taps, axis=1, mode="reflect")
    return ndimage.convolve1d(out, taps, axis=2, mode="reflect")


def ref_bce_grad(logits, targets):
    return (expit(logits) - targets) / logits.shape[0]


def ref_to_luma(data):
    r, g, b = data
    return (KR * r + KG * g + KB * b)[None, :, :]


def ref_blocks_forward(plane):
    # coefficients of block (a, b) at [a, b, :, :]
    h, w = plane.shape
    pad_h = (-h) % 8
    pad_w = (-w) % 8
    if pad_h or pad_w:
        plane = np.pad(plane, ((0, pad_h), (0, pad_w)), mode="edge")
    ph, pw = plane.shape
    tiles = plane.reshape(ph // 8, 8, pw // 8, 8).transpose(0, 2, 1, 3)
    coeffs = np.einsum("ij,abjk,lk->abil", _DCT, tiles, _DCT, optimize=True)
    return coeffs, (h, w)


def ref_blocks_inverse(coeffs, size):
    tiles = np.einsum("ji,abjk,kl->abil", _DCT, coeffs, _DCT, optimize=True)
    nby, nbx = tiles.shape[:2]
    plane = tiles.transpose(0, 2, 1, 3).reshape(nby * 8, nbx * 8)
    h, w = size
    return plane[:h, :w]


def ref_quantize_coefficients(coeffs, table):
    return ref_round_half_away(np.asarray(coeffs, dtype=np.float64) / table)


def ref_deadzone_quantize_block(coeffs, qstep, deadzone):
    coeffs = np.asarray(coeffs, dtype=np.float64)
    q = qstep
    rec = ref_round_half_away(coeffs / q) * q
    ac_dead = np.abs(coeffs) < deadzone * q
    rec = np.where(ac_dead, 0.0, rec)
    rec_dc = ref_round_half_away(coeffs[..., 0, 0] / q) * q
    rec[..., 0, 0] = rec_dc
    return rec


def ref_jpeg_simulate(data, quality, quantize_output=True):
    was_color = data.shape[0] == 3
    if was_color:
        ycbcr = ref_rgb_to_ycbcr(data, "full")
        channels = [(ycbcr[0], 128.0), (ycbcr[1], 127.5), (ycbcr[2], 127.5)]
    else:
        channels = [(data[0], 128.0)]
    tables = [quant_table_from_quality(quality, "luma")]
    if was_color:
        chroma = quant_table_from_quality(quality, "chroma")
        tables += [chroma, chroma]
    out_channels = []
    for (plane, offset), table in zip(channels, tables):
        coeffs, size = ref_blocks_forward(plane * 255.0 - offset)
        rec = np.asarray(ref_quantize_coefficients(coeffs, table), dtype=np.float64) * table
        out_channels.append((ref_blocks_inverse(rec, size) + offset) / 255.0)
    if was_color:
        result = ref_ycbcr_to_rgb(np.stack(out_channels), "full")
    else:
        result = np.clip(np.stack(out_channels), 0.0, 1.0)
    return ref_quantize_8bit(result) if quantize_output else result


def ref_video_codec_simulate(data, qstep, deadzone):
    out_channels = []
    for plane in data:
        coeffs, size = ref_blocks_forward(plane * 255.0 - 128.0)
        rec = ref_deadzone_quantize_block(coeffs, qstep, deadzone)
        out_channels.append((ref_blocks_inverse(rec, size) + 128.0) / 255.0)
    return np.clip(np.stack(out_channels), 0.0, 1.0)


def ref_tv_range_squeeze_rgb(data):
    limited = ref_quantize_8bit(ref_rgb_to_ycbcr(data, "limited"))
    return ref_quantize_8bit(ref_ycbcr_to_rgb(limited, "limited"))


def ref_luma_codes(luma):
    return ref_round_half_away(np.clip(luma, 0.0, 1.0) * 255.0).astype(np.int64)


def ref_rapsd(img, window, nbins):
    channels, height, width = img.shape
    plane = ref_to_luma(img)[0] if channels == 3 else img[0]
    plane = plane - plane.mean()
    if window == "hann":
        plane = plane * np.outer(np.hanning(height), np.hanning(width))
    spectrum = np.fft.fft2(plane)
    power = (spectrum.real**2 + spectrum.imag**2) / (width * height)
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.fftfreq(width)[None, :]
    radius = np.sqrt(fx * fx + fy * fy)
    mask = (radius > 0.0) & (radius <= 0.5)
    bin_width = 0.5 / nbins
    idx = np.ceil(radius[mask] / bin_width).astype(int) - 1
    idx = np.clip(idx, 0, nbins - 1)
    sums = np.bincount(idx, weights=power[mask], minlength=nbins)
    counts = np.bincount(idx, minlength=nbins).astype(np.int64)
    mean_power = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    radii = (np.arange(nbins) + 0.5) * bin_width
    return radii, mean_power, counts


# --- seeded frames -------------------------------------------------------------

# the codecs pad planes whose sides are not multiples of 8: both sides, rows
# only, columns only, and a single row
SIZES = [(37, 53), (8, 8), (64, 96), (16, 13), (13, 16), (1, 9)]


def frame(seed, channels, h, w, lo=-0.05, hi=1.05):
    """Random planes, a little outside [0, 1] so the clamps have work to do."""
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(channels, h, w))


def codes_frame(seed, channels, h, w):
    """A frame on the 8-bit grid, as a decoded file would hold."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(channels, h, w)) / 255.0


# --- tests -----------------------------------------------------------------------


@pytest.mark.parametrize("h, w", SIZES)
@pytest.mark.parametrize("color_range", ["full", "limited"])
class TestColorConversion:
    def test_rgb_to_ycbcr(self, h, w, color_range):
        img = frame(1, 3, h, w)
        assert np.array_equal(
            rgb_to_ycbcr(img, color_range), ref_rgb_to_ycbcr(img, color_range)
        )

    def test_ycbcr_to_rgb(self, h, w, color_range):
        img = frame(2, 3, h, w)
        assert np.array_equal(
            ycbcr_to_rgb(img, color_range), ref_ycbcr_to_rgb(img, color_range)
        )


@pytest.mark.parametrize("h, w", SIZES)
@pytest.mark.parametrize("channels", [1, 3])
class TestPixelKernels:
    def test_quantize_8bit(self, h, w, channels):
        img = frame(3, channels, h, w)
        assert np.array_equal(quantize_8bit(img), ref_quantize_8bit(img))

    @pytest.mark.parametrize("length, angle", [(5, 0.0), (4, 33.0)])
    def test_motion_blur(self, h, w, channels, length, angle):
        img = frame(4, channels, h, w)
        assert np.array_equal(
            motion_blur(img, length, angle), ref_motion_blur(img, length, angle)
        )

    def test_to_luma(self, h, w, channels):
        img = frame(5, channels, h, w)
        expected = ref_to_luma(img) if channels == 3 else img
        assert np.array_equal(to_luma(img), expected)

    @pytest.mark.parametrize("quality", [10, 75, 100])
    def test_jpeg_simulate(self, h, w, channels, quality):
        img = codes_frame(6, channels, h, w)
        assert np.array_equal(
            jpeg_simulate(img, quality), ref_jpeg_simulate(img, quality)
        )

    @pytest.mark.parametrize("deadzone", [0.0, 0.5])
    def test_video_codec_simulate(self, h, w, channels, deadzone):
        img = codes_frame(7, channels, h, w)
        assert np.array_equal(video_codec_simulate(img, 16.0, deadzone),
                              ref_video_codec_simulate(img, 16.0, deadzone))

    @pytest.mark.parametrize("half_codes", [False, True])
    def test_load_and_save_image(self, tmp_path, h, w, channels, half_codes):
        img = frame(8, channels, h, w)
        if half_codes:  # samples halfway between two codes round up
            img = (np.floor(img * 255.0) + 0.5) / 255.0
        path = tmp_path / ("f.ppm" if channels == 3 else "f.pgm")
        save_image(img, path)
        codes = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
        payload = codes[0].tobytes() if channels == 1 else codes.transpose(1, 2, 0).tobytes()
        assert path.read_bytes().endswith(b"\n%d %d\n255\n" % (w, h) + payload)
        assert np.array_equal(load_image(path), codes.astype(np.float64) / 255.0)


# planes with both, one or no sides a multiple of 8, down to a single row
DCT_PLANES = [(256, 455), (360, 640), (37, 53), (9, 17), (8, 8), (1, 9), (1080, 1920)]


@pytest.mark.parametrize("h, w", DCT_PLANES)
@pytest.mark.parametrize("on_grid", [False, True])
def test_block_dct_matches_einsum(h, w, on_grid):
    img = codes_frame(21, 1, h, w) if on_grid else frame(21, 1, h, w)
    plane = img[0]
    expected, size = ref_blocks_forward(plane * 255.0 - 128.0)
    coeffs = _shifted_coeffs(plane, 128.0)
    assert coeffs.shape == (-(-h // 8), 8, -(-w // 8), 8)
    assert np.array_equal(coeffs.transpose(0, 2, 1, 3), expected)
    rounded = np.round(expected)  # quantized values, as the codecs invert them
    for ref_coeffs in (expected, rounded):
        out = np.empty((h, w))
        _reconstruct(np.ascontiguousarray(ref_coeffs.transpose(0, 2, 1, 3)), 128.0, out)
        assert np.array_equal(out, (ref_blocks_inverse(ref_coeffs, size) + 128.0) / 255.0)


# Frames that span several of the kernels' row bands, with a partial last band,
# widths that are not multiples of 8 and, at 137 rows, a partial last block
# row; 8x4096 is a single block row.
BAND_FRAMES = [(256, 455), (360, 640), (137, 1001), (8, 4096)]


@pytest.mark.parametrize("h, w", BAND_FRAMES)
@pytest.mark.parametrize("channels", [1, 3])
def test_kernels_across_band_edges(h, w, channels):
    if h > 8:  # the frames really are cut into several bands
        assert len(_bands(h, w, 8)) > 1 and len(_bands(h, w)) > 1
    img = codes_frame(23, channels, h, w)
    for quantize_output in (True, False):
        expected = ref_jpeg_simulate(img, 75, quantize_output)
        assert np.array_equal(jpeg_simulate(img, 75, quantize_output), expected)
        own = img.copy()  # written over, as the chain does
        assert np.array_equal(_jpeg_simulate(own, 75, quantize_output, own), expected)
    expected = ref_video_codec_simulate(img, 16.0, 0.5)
    assert np.array_equal(video_codec_simulate(img, 16.0, 0.5), expected)
    own = img.copy()
    assert np.array_equal(_video_codec_simulate(own, 16.0, 0.5, own), expected)
    for length, angle in ((5, 0.0), (7, 30.0)):
        assert np.array_equal(motion_blur(img, length, angle),
                              ref_motion_blur(img, length, angle))


@pytest.mark.parametrize("channels", [1, 3])
def test_chain_equals_its_public_functions_in_turn(channels):
    # color_jitter has no public function, so its step is applied through its
    # kernel, with a fresh generator: no other step draws from the chain's
    jitter = {"step": "color_jitter", "brightness": (0.8, 1.2), "contrast": (0.7, 1.3),
              "saturation": (0.5, 1.5)}
    chain = chain_steps({"steps": [
        {"step": "motion_blur", "length": 5, "angle_deg": 30.0},
        {"step": "gaussian_blur", "sigma": 1.2},
        {"step": "resize", "shorter_side": 40},
        {"step": "jpeg", "quality": 60},
        {"step": "video_codec", "qstep": 12.0, "deadzone": 0.3},
        {"step": "tv_range_squeeze"},
        jitter,
        {"step": "quantize_8bit"},
    ]})
    assert [step["step"] for step in chain] == list(STEP_FIELDS)
    img = frame(24, channels, 53, 77)
    out = apply_chain(img, chain, np.random.default_rng(5))
    expected = motion_blur(img, 5, 30.0)
    expected = shorter_side_resize(gaussian_blur(expected, 1.2), 40)
    expected = video_codec_simulate(jpeg_simulate(expected, 60), 12.0, 0.3)
    expected = tv_range_squeezed(expected)
    expected = _KERNELS["color_jitter"](expected, jitter, np.random.default_rng(5), None)
    assert np.array_equal(out, quantize_8bit(expected))


@pytest.mark.parametrize("h, w", BAND_FRAMES)
@pytest.mark.parametrize("channels", [1, 3])
def test_channelwise_steps_one_plane_at_a_time(h, w, channels):
    # the steps apply_chain runs a plane at a time on a frame's codes
    steps = chain_steps({"steps": [
        {"step": "motion_blur", "length": 5, "angle_deg": 30.0},
        {"step": "gaussian_blur", "sigma": 1.2},
        {"step": "resize", "shorter_side": min(h, w) * 2 // 3},
        {"step": "video_codec", "qstep": 16.0, "deadzone": 0.5},
        {"step": "quantize_8bit"},
    ]})
    assert {step["step"] for step in steps} == CHANNELWISE
    data = frame(25, channels, h, w)
    for step in steps:
        kernel = _KERNELS[step["step"]]
        whole = np.ascontiguousarray(kernel(data, step, None, None))
        # each plane a copy the kernel writes over, as in apply_chain's leading run
        planes = np.stack([kernel(own, step, None, own)[0]
                           for own in (plane[None].copy() for plane in data)])
        assert np.array_equal(planes.view(np.int64), whole.view(np.int64)), step["step"]


@pytest.mark.parametrize("channels, doc", [
    (3, CANONICAL_CHAIN),
    (3, EVERY_STEP_CHAIN),
    (3, {"steps": [{"step": "jpeg", "quality": 60}, {"step": "gaussian_blur", "sigma": 0.7}]}),
    (3, {"steps": [{"step": "color_jitter", "contrast": [0.5, 1.5]}, {"step": "resize",
                                                                       "shorter_side": 90}]}),
    (1, CANONICAL_CHAIN),
    (1, EVERY_STEP_CHAIN),
], ids=["canonical", "every-step", "jpeg-first", "jitter-first", "p5-canonical", "p5-every-step"])
def test_chain_of_the_codes_is_the_chain_of_the_image(tmp_path, channels, doc):
    path = tmp_path / ("f.ppm" if channels == 3 else "f.pgm")
    save_image(codes_frame(26, channels, 360, 640), path)
    steps = chain_steps(doc)
    expected = apply_chain(load_image(path), steps, np.random.default_rng(7))
    out = apply_chain(load_codes(path), steps, np.random.default_rng(7))
    assert out.tobytes() == expected.tobytes()


def traced_peak(call) -> int:
    """The most bytes ``call()`` holds at once, after a first call fills the caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chain_of_the_codes_never_holds_a_float_frame(tmp_path):
    path = tmp_path / "f.ppm"
    save_image(codes_frame(27, 3, 360, 640), path)
    steps = chain_steps(CANONICAL_CHAIN)
    peak = traced_peak(lambda: save_image(
        apply_chain(load_codes(path), steps, np.random.default_rng(0)), tmp_path / "o.ppm"))
    # a float64 RGB frame of the source is 5.5 MB; the whole-frame chain
    # of load_image's planes peaks near three of them. A sample holds the
    # codes, one frame, the plane being processed and band-sized scratch
    # (6.43 MB); a second frame-sized array would pass 1.19 frames (6.58 MB).
    assert peak < 1.19 * 3 * 360 * 640 * 8


# one band of one plane of a 256x455 frame, the unit of the kernels' scratch
BAND_BYTES = 8 * 455 * _bands(256, 455)[0].stop


@pytest.mark.parametrize("call, limit", [
    (lambda x, path: _motion_blur(x, 7, 30.0, x), 5 * BAND_BYTES),
    (lambda x, path: _jpeg_simulate(x, 75, True, x), 8 * BAND_BYTES),
    (lambda x, path: _video_codec_simulate(x, 16.0, 0.5, x), 8 * BAND_BYTES),
    # save_image's own 8-bit codes come on top
    (lambda x, path: save_image(x, path), 3 * BAND_BYTES + 3 * 256 * 455),
], ids=["motion_blur", "jpeg", "video_codec", "save_image"])
def test_kernel_scratch_is_a_few_bands(tmp_path, call, limit):
    # in place on a 256x455 frame, as the chain runs them: a plane-sized temporary
    # (3.6 bands) or a frame-sized one would break the bound
    x = codes_frame(30, 3, 256, 455).copy()
    assert traced_peak(lambda: call(x, tmp_path / "f.ppm")) < limit


def test_chain_that_changes_nothing_returns_its_planes(tmp_path):
    path = tmp_path / "f.ppm"
    save_image(codes_frame(28, 3, 37, 53), path)
    steps = chain_steps({"steps": [{"step": "motion_blur", "length": 1},
                                   {"step": "gaussian_blur", "sigma": 0},
                                   {"step": "resize", "shorter_side": 37}]})
    img = load_image(path)
    same = apply_chain(img, steps, np.random.default_rng(0))
    assert np.shares_memory(same, img) and same.shape == img.shape  # no copy
    out = apply_chain(load_codes(path), steps, np.random.default_rng(0))
    assert out.tobytes() == img.tobytes()


@pytest.mark.parametrize("doc", [CANONICAL_CHAIN, EVERY_STEP_CHAIN], ids=["canonical",
                                                                          "every-step"])
@pytest.mark.parametrize("channels", [1, 3])
def test_chain_never_writes_into_callers_planes(tmp_path, channels, doc):
    path = tmp_path / ("f.ppm" if channels == 3 else "f.pgm")
    save_image(codes_frame(29, channels, 90, 150), path)
    steps = chain_steps(doc)
    img, codes = load_image(path), load_codes(path)
    before, codes_before = img.tobytes(), codes.tobytes()
    out = apply_chain(img, steps, np.random.default_rng(0))
    assert img.tobytes() == before
    assert not np.shares_memory(out, img)
    apply_chain(codes, steps, np.random.default_rng(0))
    assert codes.tobytes() == codes_before


# every public function that takes an image, each called so that it does work
PIXEL_CALLS = {
    "rgb_to_ycbcr": lambda x, path: rgb_to_ycbcr(x, "limited"),
    "ycbcr_to_rgb": lambda x, path: ycbcr_to_rgb(x, "limited"),
    "quantize_8bit": lambda x, path: quantize_8bit(x),
    "shorter_side_resize": lambda x, path: shorter_side_resize(x, 20),
    "gaussian_blur": lambda x, path: gaussian_blur(x, 1.5),
    "motion_blur": lambda x, path: motion_blur(x, 4, 30.0),
    "to_luma": lambda x, path: to_luma(x),
    "jpeg_simulate": lambda x, path: jpeg_simulate(x, 50),
    "video_codec_simulate": lambda x, path: video_codec_simulate(x, 9.0, 0.2),
    "tv_range_squeeze": lambda x, path: tv_range_squeezed(x),  # a chain step alone
    "apply_chain": lambda x, path: apply_chain(x, chain_steps(EVERY_STEP_CHAIN),
                                               np.random.default_rng(0)),
    "save_image": lambda x, path: save_image(x, path),
    "dct_ac_histogram": lambda x, path: dct_ac_histogram([x]),
    "rapsd": lambda x, path: rapsd(x, "hann"),
    "luminance_histogram": lambda x, path: luminance_histogram([x]),
    "residual_power": lambda x, path: forensics.residual_power(x, 1.0, 24),
}


@pytest.mark.parametrize("name, channels", [
    (name, channels) for name in sorted(PIXEL_CALLS) for channels in (1, 3)
    if channels == 3 or name not in ("rgb_to_ycbcr", "ycbcr_to_rgb")])
def test_no_public_function_writes_over_its_callers_array(tmp_path, name, channels):
    x = frame(31, channels, 37, 53)  # writeable C-contiguous float64: viewed, not copied
    before = x.copy()
    PIXEL_CALLS[name](x, tmp_path / "f.ppm")
    assert x.flags.writeable and np.array_equal(x.view(np.int64), before.view(np.int64))


def test_round_half_away_keeps_the_bits_of_copysign():
    # the sign bit ORed into floor(|x| + 0.5) must be copysign's, on every kind of float
    quiet_nans = np.array([0x7FF8000000000123, 0xFFF8000000000001], dtype=np.uint64)
    specials = np.concatenate([
        [0.0, 0.5, 1.5, 2.5, 0.49999999999999994, 1.0 - 2.0**-53, np.inf, np.nan, 5e-324,
         2.0**-1022 - 5e-324, 2.0**-1022, 2.0**52 - 0.5, 2.0**52 + 0.5, 2.0**52 + 1,
         2.0**53 - 1, np.finfo(np.float64).max],
        quiet_nans.view(np.float64)])
    x = np.concatenate([specials, -specials,
                        np.random.default_rng(3).normal(scale=300.0, size=100_000)])
    expected = ref_round_half_away(x).view(np.int64)
    assert np.array_equal(round_half_away(x).view(np.int64), expected)
    for value, bits in zip(x[:2 * len(specials)], expected):
        assert np.array(round_half_away(value)).view(np.int64) == bits


# the BAND_FRAMES sizes, smaller and larger, give outputs of several row bands
@pytest.mark.parametrize("h, w, target", [
    (37, 53, 20), (37, 53, 81), (64, 96, 40), (9, 200, 16), (256, 455, 144), (256, 455, 360),
    (360, 640, 256), (360, 640, 480), (137, 1001, 100), (137, 1001, 200), (8, 4096, 3),
    (8, 2048, 16),  # a 4096-wide output: the size budget's edge
])
@pytest.mark.parametrize("channels", [1, 3])
def test_resize_up_and_down(h, w, target, channels):
    img = frame(9, channels, h, w)
    s = target / min(w, h)
    out_w = target if w <= h else int(ref_round_half_away(w * s))
    out_h = target if h <= w else int(ref_round_half_away(h * s))
    expected = ref_bilinear_resize(img, out_h, out_w)
    assert np.array_equal(shorter_side_resize(img, target), expected)


@pytest.mark.parametrize("h, w", SIZES)
def test_tv_range_squeeze(h, w):
    img = frame(10, 3, h, w)
    assert np.array_equal(tv_range_squeezed(img), ref_tv_range_squeeze_rgb(img))


@pytest.mark.parametrize("deadzone", [0.0, 0.5, 0.75])
def test_coefficient_quantizers(deadzone):
    rng = np.random.default_rng(11)
    coeffs = rng.normal(0.0, 40.0, size=(5, 7, 8, 8))
    coeffs[0, 0, 3, 3] = -0.0
    coeffs[0, 1, 0, 0] = 10.0  # a DC value inside the 0.75 deadzone that rounds to 16
    before = coeffs.copy()
    assert np.array_equal(deadzone_quantize_block(coeffs, 16.0, deadzone),
                          ref_deadzone_quantize_block(coeffs, 16.0, deadzone))
    table = quant_table_from_quality(30, "chroma")
    assert np.array_equal(
        quantize_coefficients(coeffs, table), ref_quantize_coefficients(coeffs, table)
    )
    assert np.array_equal(coeffs, before)  # the public quantizers leave their input alone


# rapsd sums the rfft2 half plane, ref_rapsd the fft2 plane: the same sums,
# rounded differently, so the power per bin agrees to rounding, not bit for bit
RAPSD_RTOL = 1e-12


# even and odd sides in both orders; 200 bins are finer than the radius
# resolution of every size here, so some bins stay empty
@pytest.mark.parametrize("h, w", [(37, 53), (16, 16), (64, 96), (17, 16), (16, 17),
                                  (101, 99), (33, 100)])
@pytest.mark.parametrize("window", ["none", "hann"])
@pytest.mark.parametrize("nbins", [3, 8, 200])
def test_rapsd_with_cached_bins(h, w, window, nbins):
    for seed in (12, 13):  # the second call reads the cached bin geometry
        img = frame(seed, 3, h, w)
        profile = rapsd(img, window=window, nbins=nbins)
        radii, power, counts = ref_rapsd(img, window, nbins)
        assert np.array_equal(profile.radii, radii)
        assert np.array_equal(profile.counts, counts)
        filled = counts > 0
        assert np.all(np.abs(profile.power[filled] - power[filled])
                      <= RAPSD_RTOL * power[filled])
        assert np.all(profile.power[~filled] == 0.0)
        assert not profile.counts.flags.writeable
    if nbins == 200:
        assert not filled.all()


def test_luminance_histogram_codes_at_rounding_edges():
    # every code, every halfway point between codes, their neighbouring
    # doubles, and values the clip moves onto 0 and 1
    k = np.arange(256.0)
    luma = np.concatenate([k, k - 0.5, k + 0.5]) / 255.0
    luma = np.concatenate([
        luma, np.nextafter(luma, -np.inf), np.nextafter(luma, np.inf), [-0.3, -0.0, 1.2]
    ])
    codes = [
        int(np.flatnonzero(luminance_histogram([np.full((1, 1, 1), v)]))[0])
        for v in luma
    ]
    assert codes == ref_luma_codes(luma).tolist()
    img = frame(22, 3, 37, 53, lo=-0.2, hi=1.2)
    expected = np.bincount(ref_luma_codes(ref_to_luma(img)).ravel(), minlength=256)
    assert np.array_equal(luminance_histogram([img, img]), 2 * expected)


@pytest.mark.parametrize("h, w", [(360, 640), (37, 53), (1, 1)])
@pytest.mark.parametrize("channels", [1, 3])
def test_load_luma_matches_to_luma_of_load_image(tmp_path, h, w, channels):
    path = tmp_path / ("f.ppm" if channels == 3 else "f.pgm")
    save_image(codes_frame(18, channels, h, w), path)
    expected = to_luma(load_image(path))
    assert np.array_equal(load_luma(path), expected)
    # windows narrower than both sides, between the two, and wider than both
    for size in (1, 8, 40, 64, 1000):
        window = load_luma(path, size)
        assert window.shape == (1, size, size)
        assert np.array_equal(window[0], _fit_to_square(expected[0], size)), size


@pytest.mark.parametrize("blob, error", [
    (None, "image not found"),
    (b"P3\n2 2\n255\n" + bytes(12), "unsupported magic b'P3'"),
    (b"P6\n2 2\n65535\n" + bytes(24), "only maxval 255 supported, got 65535"),
    (b"P6\n2 2\n255\n" + bytes(11), "expected 12 payload bytes, got 11"),
], ids=["missing", "bad-magic", "maxval-65535", "truncated"])
def test_load_luma_fails_as_load_image(tmp_path, blob, error):
    path = tmp_path / "f.ppm"
    if blob is not None:
        path.write_bytes(blob)
    with pytest.raises(InputError, match=error) as luma_error:
        load_luma(path, 8)
    with pytest.raises(InputError, match=error) as image_error:
        load_image(path)
    assert str(luma_error.value) == str(image_error.value)


@pytest.mark.parametrize("nbins", [1, 2, 129])
@pytest.mark.parametrize("value_range", [64.0, 1.3])
def test_dct_ac_histogram_counts_match_explicit_edges(monkeypatch, nbins, value_range):
    # the binning any faster path must keep: bins closed on the left, the last
    # one on both sides, values outside the range dropped
    edges = np.linspace(-value_range, value_range, nbins + 1)
    values = np.concatenate([
        edges,
        np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf),
        [value_range, -value_range, -0.0, 0.0, 2.0 * value_range, -np.inf, np.inf],
        np.random.default_rng(19).uniform(-1.5 * value_range, 1.5 * value_range, 500),
    ])
    # feed ``values`` to the histogram as the AC coefficients of a run of blocks
    ac = np.zeros(-(-values.size // 63) * 63)
    ac[: values.size] = values
    coeffs = np.zeros((1, ac.size // 63, 8, 8))
    coeffs.reshape(-1, 64)[:, 1:] = ac.reshape(-1, 63)
    # the same blocks in the block DCT's (nby, 8, nbx, 8) layout
    plane_coeffs = coeffs.transpose(0, 2, 1, 3)
    monkeypatch.setattr(forensics, "_shifted_coeffs", lambda plane, offset: plane_coeffs)
    result = dct_ac_histogram([frame(20, 1, 8, 8)], value_range, nbins)
    expected, _ = np.histogram(ac, bins=edges)
    assert np.array_equal(result.counts, expected)
    assert np.array_equal(result.bin_edges, edges)


# planes wider and narrower than the kernels, down to a single row
BLUR_PLANES = [(360, 640), (37, 53), (2, 2), (1, 9)]


def ref_symmetric_motion_blur(data, length, angle_deg):
    """The line kernel's taps, in raveled order of the flipped kernel, summed over
    planes that np.pad mirrors periodically however far the taps reach."""
    kernel = motion_blur_kernel(length, angle_deg)[::-1, ::-1]
    radius = kernel.shape[0] // 2
    _, h, w = data.shape
    padded = np.pad(data, ((0, 0), (radius, radius), (radius, radius)), mode="symmetric")
    out = None
    for y, x in zip(*np.nonzero(kernel)):
        term = kernel[y, x] * padded[:, y : y + h, x : x + w]
        out = term if out is None else out + term
    return out


def tap_reach(length, angle_deg) -> tuple[int, int]:
    """The rows and the columns a motion_blur kernel's taps reach from its center."""
    kernel = motion_blur_kernel(length, angle_deg)
    rows, cols = np.nonzero(kernel)
    radius = kernel.shape[0] // 2
    return int(np.abs(rows - radius).max()), int(np.abs(cols - radius).max())


@pytest.mark.parametrize("h, w", [*BLUR_PLANES, (3, 3), (5, 5), (8, 8)])
@pytest.mark.parametrize("angle", [0.0, 30.0, 45.0, 90.0, 135.0])
def test_motion_blur_matches_ndimage_convolve(h, w, angle):
    # SciPy agrees while the taps reach fewer than 4x the side along each axis
    # longer than a pixel (first differing at length 16, 24, 40 and 64 at 0 degrees
    # on 2, 3, 5 and 8 px squares); the small planes take lengths past that bound
    img = frame(15, 1, h, w)
    for length in range(1, 16 if min(h, w) > 8 else 12 * max(h, w) + 4):
        ry, rx = tap_reach(length, angle)
        out = motion_blur(img, length, angle)
        within = (ry < 4 * h or h == 1) and (rx < 4 * w or w == 1)
        assert np.array_equal(out, ref_motion_blur(img, length, angle)) == within, length
        assert np.array_equal(out, ref_symmetric_motion_blur(img, length, angle)), length


@pytest.mark.parametrize("h, w, lengths", [
    (360, 640, (3, 7, 15, 75)), (137, 1001, (3, 7, 15, 75)), (40, 4096, (3, 7, 15, 75)),
    (2, 2, (3, 7, 15)), (1, 9, (3, 7, 15))])
@pytest.mark.parametrize("angle", [30.0, 45.0, 90.0, 135.0])
def test_motion_blur_in_place_across_band_edges(h, w, lengths, angle):
    # as the chain calls it: a band is written over the plane once the next band,
    # which reads the last rows of this one, is padded. Length 75 reaches 19 to 37
    # rows up and down, more than a 32k-sample band is tall at widths 1001 (32 rows)
    # and 4096 (8), so the blur's bands must grow with the kernel to stay exact.
    data = frame(17, 3, h, w)
    for length in lengths:
        kernel = motion_blur_kernel(length, angle)
        assert np.nonzero(kernel.any(axis=1))[0].size > 1  # the taps span rows
        expected = ref_motion_blur(data, length, angle)
        own = data.copy()
        assert _motion_blur(own, length, angle, out=own) is own
        assert np.array_equal(own.view(np.int64), expected.view(np.int64)), length


@pytest.mark.parametrize("h, w", [(360, 640), (37, 53), (6, 5), (2, 9), (1, 1)])
@pytest.mark.parametrize("channels", [1, 3])
def test_gaussian_blur_matches_ndimage_convolve1d(h, w, channels):
    img = frame(16, channels, h, w)
    # radius 1 to 10: the small planes are narrower than most of these kernels
    for sigma in np.arange(0.3, 3.31, 0.1):
        expected = ref_gaussian_blur(img, sigma)
        assert np.array_equal(gaussian_blur(img, sigma), expected), sigma


def normal_logits(rng):
    return np.concatenate(
        [rng.normal(scale=scale, size=5000) for scale in (0.1, 1.0, 10.0, 300.0)])


def test_bce_grad_matches_expit(monkeypatch):
    # the whole-batch path: the per-element fallback is never called. About 2%
    # of the scale-300 draws lie past +-709, where libm's exp overflows for -v.
    monkeypatch.setattr(cmsupcon, "_sigmoid", None)
    rng = np.random.default_rng(17)
    logits = np.clip(normal_logits(rng), -709.0, 709.0)
    targets = (rng.random(logits.size) < 0.5).astype(np.float64)
    assert np.array_equal(bce_grad(logits, targets), ref_bce_grad(logits, targets))


def test_bce_grad_matches_expit_at_the_edges():
    rng = np.random.default_rng(17)
    # libm's exp overflows below about -709.78, where expit is exactly 0.0;
    # expit(-709.5) is still a subnormal 7.4e-309
    edges = [0.0, 700.0, -700.0, 709.5, -709.5, 745.0, -745.0, 1000.0, -1000.0]
    logits = np.concatenate([normal_logits(rng), edges])
    targets = (rng.random(logits.size) < 0.5).astype(np.float64)
    assert np.array_equal(bce_grad(logits, targets), ref_bce_grad(logits, targets))
    # one logit with target 0: the gradient is the sigmoid itself, unscaled
    for v in edges:
        one, zero = np.array([v]), np.zeros(1)
        assert np.array_equal(bce_grad(one, zero), ref_bce_grad(one, zero)), v


class TestKeepFreedHeap:
    def test_sets_the_two_glibc_thresholds(self, monkeypatch):
        calls = []

        class Mallopt:
            def __call__(self, param, value):
                calls.append((param, value))
                return 1

        class Libc:
            mallopt = Mallopt()

        monkeypatch.setattr("ctypes.CDLL", lambda name: Libc())
        cli._keep_freed_heap()
        assert calls == [(-1, 1 << 30), (-3, 32 << 20)]

    # OSError: no C library; TypeError: CDLL(None) where there is no
    # process-wide handle (Windows); AttributeError: a library without mallopt
    @pytest.mark.parametrize("missing", [AttributeError, OSError, TypeError])
    def test_no_op_without_mallopt(self, monkeypatch, tmp_path, missing):
        def cdll(name):
            if missing is AttributeError:
                return object()
            raise missing("no mallopt")

        monkeypatch.setattr("ctypes.CDLL", cdll)
        cli._keep_freed_heap()
        src = tmp_path / "f.ppm"
        save_image(frame(14, 3, 24, 40), src)
        manifest = write_manifest_file(tmp_path / "m.jsonl", [
            {"id": "a", "path": str(src), "label": "real", "modality": "image",
             "subset": "s"},
        ])
        chain = tmp_path / "chain.json"
        chain.write_text('{"steps": [{"step": "resize", "shorter_side": 16},'
                         ' {"step": "jpeg", "quality": 75}]}')
        assert cli.main(["degrade", "--manifest", str(manifest), "--chain", str(chain),
                         "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "000000_a.ppm").is_file()

