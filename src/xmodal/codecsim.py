"""Blockwise-DCT transform-coding simulators and declarative degradation chains.

Two quantizers are modeled on top of a shared orthonormal 8x8 DCT: a
JPEG-style quantizer with read-only 8x8 integer tables, and a video-codec-style
uniform deadzone quantizer whose plain-number ``qstep`` and ``deadzone`` the
``video_codec`` row of STEP_FIELDS checks, once per chain or public call.
A chain composes them with the pixel primitives into a blur -> resize ->
codec -> color pipeline: chain_steps checks a chain document once, into
read-only step documents; apply_chain runs their plane kernels on raw (c, h, w)
planes of an image or a frame's 8-bit codes and checks the result at the end.
The codecs and motion_blur write over planes the chain allocated, never the
caller's. The codecs walk a frame in bands of whole block rows, all channels
at once (same bits), in one DCT workspace: a band stays in L2 throughout.

The simulators are approximations: no entropy coding, no chroma
subsampling, no inter-frame prediction. HEIF/WebP-style compression is
represented by deadzone-quantizer presets, not real encoders.
"""

from __future__ import annotations

import functools
import hashlib
import math
import reprlib
from collections.abc import Mapping, Sequence
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .core import (MAX_SIDE, MAX_SIGMA, ZERO_EPS, Field, _bands, check_choice, check_fields,
                   check_planes, read_json, with_defaults)
from .errors import InputError
from .pixelops import (
    BLUR_FIELDS,
    _color_jitter,
    _gaussian_blur,
    _motion_blur,
    _quantize_8bit,
    _rgb_to_ycbcr,
    _round_half_away_inplace,
    _scratch,
    _shorter_side_resize,
    _ycbcr_to_rgb,
    round_half_away,
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
        raise InputError(f"dct8x8_forward: expected an 8x8 block, got shape {block.shape}")
    return _DCT @ block @ _DCT.T


def dct8x8_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Exact inverse of dct8x8_forward (round trip error <= 1e-10)."""
    block = np.asarray(coeffs, dtype=np.float64)
    if block.shape != (BLOCK, BLOCK):
        raise InputError(f"dct8x8_inverse: expected an 8x8 block, got shape {block.shape}")
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
JPEG_CHANNELS = ("luma", "chroma")  # the channels of the two tables


def quant_table_from_quality(quality: int, channel: str = "luma") -> np.ndarray:
    """Scale the standard base table of ``channel``, one of JPEG_CHANNELS, by the
    reference quality convention.

    scale = 5000/Q for Q < 50, else 200 - 2Q;
    entry = clamp(floor((base*scale + 50)/100), 1, 255). The table is a
    read-only 8x8 int64 array.
    """
    if not 1 <= quality <= 100:
        raise InputError(f"quality must lie in [1, 100], got {quality}")
    check_choice(channel, "channel", JPEG_CHANNELS, "quant_table_from_quality: ")
    base = JPEG_LUMA_BASE if channel == "luma" else JPEG_CHROMA_BASE
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    table = np.clip((base * scale + 50) // 100, 1, 255)
    table.setflags(write=False)
    return table


def quantize_coefficients(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Divide (..., 8, 8) blocks by the table and round half-away-from-zero."""
    return _round_half_away_inplace(np.divide(coeffs, table, dtype=np.float64))


def dequantize_coefficients(indices: np.ndarray, table: np.ndarray) -> np.ndarray:
    return np.multiply(indices, table, dtype=np.float64)


@functools.lru_cache(maxsize=8)
def _jpeg_tables(quality: int, channels: int, nbx: int) -> np.ndarray:
    """The luma table, then chroma for each further channel, tiled along a row of
    ``nbx`` blocks as read-only float64 in _shifted_coeffs' (c, 1, 8, nbx, 8) layout."""
    kinds = ("luma", "chroma", "chroma")[:channels]
    tables = [np.tile(quant_table_from_quality(quality, kind), nbx) for kind in kinds]
    tiled = np.array(tables, dtype=np.float64).reshape(channels, 1, BLOCK, nbx, BLOCK)
    tiled.setflags(write=False)
    return tiled


def deadzone_quantize_block(
    coeffs: np.ndarray, qstep: float, deadzone: float = 0.0
) -> np.ndarray:
    """Reconstruction values of one coefficient block under the deadzone rule.

    ``qstep`` is the step at 8-bit coefficient scale; ``deadzone`` is the
    fraction of qstep below which AC coefficients are zeroed outright. DC
    gets a plain round; AC is zeroed inside deadzone*qstep, otherwise rounded
    to the nearest multiple of qstep. Settings off the ``video_codec`` step's
    row raise InputError.
    """
    check_fields({"qstep": qstep, "deadzone": deadzone}, STEP_FIELDS["video_codec"],
                 "deadzone_quantize_block: ")
    # viewed as (..., 8, 1, 8): a plane one block wide, in _shifted_coeffs' layout
    rec = _deadzone_quantize_inplace(np.array(coeffs, dtype=np.float64)[..., None, :],
                                     qstep, deadzone)
    return rec[..., 0, :]


def _deadzone_quantize_inplace(coeffs: np.ndarray, qstep: float, deadzone: float,
                               scratch=None) -> np.ndarray:
    """deadzone_quantize_block written over (..., nby, 8, nbx, 8) float64 ``coeffs``."""
    dead = np.abs(coeffs, out=_scratch(scratch, coeffs.shape)) < deadzone * qstep
    dead[..., 0, :, 0] = False  # DC is exempt from the deadzone
    coeffs /= qstep
    _round_half_away_inplace(coeffs, scratch)
    coeffs *= qstep
    np.copyto(coeffs, 0.0, where=dead)
    return coeffs


# --- image-level simulators -----------------------------------------------------


LUMA_OFFSET = 128.0
CHROMA_OFFSET = 127.5  # chroma neutral is 0.5 in float, i.e. 127.5 at 8-bit scale
_YCC_OFFSETS = np.array([LUMA_OFFSET, CHROMA_OFFSET, CHROMA_OFFSET])[:, None, None]


def _dct_workspace(band: np.ndarray) -> np.ndarray:
    """A pair of flat buffers, each as large as the padded planes of ``band``."""
    *lead, h, w = band.shape
    return np.empty((2, math.prod(lead) * -(-h // BLOCK) * -(-w // BLOCK) * BLOCK * BLOCK))


def _shifted_coeffs(plane: np.ndarray, offset, work=(None, None)) -> np.ndarray:
    """Block DCT of (..., h, w) planes at 8-bit scale, level-shifted by ``-offset``.

    The shifted planes are written into a buffer edge-padded to a multiple of 8.
    Their coefficients keep that buffer's layout, shape (..., nby, 8, nbx, 8):
    coefficient (u, v) of block (a, b) sits at [..., a, u, b, v]. One matmul
    sums over the rows of each block, a second over its columns, in that
    order: the other order differs in the last bit. The padded planes, then the
    coefficients, take the first buffer of the pair ``work``, the row sums the
    second, so no matmul writes over its input (NumPy would copy it); so does
    _reconstruct. Without a pair each is its own array: the row sums are freed on return.
    """
    *lead, h, w = plane.shape
    nby, nbx = -(-h // BLOCK), -(-w // BLOCK)
    padded, rows = (_scratch(buf, (*lead, nby * BLOCK, nbx * BLOCK)) for buf in work)
    shifted = np.multiply(plane, 255.0, out=padded[..., :h, :w])
    shifted -= offset
    padded[..., :h, w:] = shifted[..., -1:]
    padded[..., h:, :] = padded[..., h - 1 : h, :]
    np.matmul(_DCT, padded.reshape(-1, BLOCK, nbx * BLOCK),
              out=rows.reshape(-1, BLOCK, nbx * BLOCK))
    np.matmul(rows.reshape(-1, BLOCK), _DCT.T, out=padded.reshape(-1, BLOCK))
    return padded.reshape(*lead, nby, BLOCK, nbx, BLOCK)


def _reconstruct(coeffs: np.ndarray, offset, out: np.ndarray, work=(None, None)) -> None:
    """Inverse of _shifted_coeffs (rows, then columns) into the [0, 1]-scale planes ``out``."""
    *lead, nby, _, nbx, _ = coeffs.shape
    plane, rows = (_scratch(buf, (*lead, nby * BLOCK, nbx * BLOCK)) for buf in work)
    np.matmul(_DCT.T, coeffs.reshape(-1, BLOCK, nbx * BLOCK),
              out=rows.reshape(-1, BLOCK, nbx * BLOCK))
    np.matmul(rows.reshape(-1, BLOCK), _DCT, out=plane.reshape(-1, BLOCK))
    h, w = out.shape[-2:]
    np.add(plane[..., :h, :w], offset, out=out)
    out /= 255.0


def jpeg_simulate(img: np.ndarray, quality: int, quantize_output: bool = True) -> np.ndarray:
    """JPEG-style transform coding round trip at the given quality.

    Full-range YCbCr, 4:4:4 (no chroma subsampling), blockwise level-shifted
    DCT, integer-table quantization, inverse, back to RGB. With
    ``quantize_output`` the result is snapped to the 8-bit grid like a
    decoded file; pass False to keep the float reconstruction, which
    preserves exactly-zero AC coefficients for analysis.
    """
    return _jpeg_simulate(check_planes(img), quality, quantize_output)


def _jpeg_simulate(data: np.ndarray, quality: int, quantize_output: bool, out=None) -> np.ndarray:
    # color input goes through full-range YCbCr; chroma is shifted by its
    # neutral so a neutral-gray image has exactly-zero chroma coefficients
    c, h, w = data.shape
    tables = _jpeg_tables(quality, c, -(-w // BLOCK))
    offsets = _YCC_OFFSETS[:c]
    out = np.empty_like(data) if out is None else out
    bands = _bands(h, w, BLOCK)
    work = _dct_workspace(data[:, bands[0]])
    # ``out`` may be ``data``: a band is read (its YCbCr planes into ``dst``) before it is
    # written. work[1] holds the colour conversions' and the roundings' temporaries too.
    for rows in bands:
        src, dst = data[:, rows], out[:, rows]
        src = _rgb_to_ycbcr(src, "full", dst, work[1]) if c == 3 else src
        coeffs = _shifted_coeffs(src, offsets, work)
        coeffs /= tables
        _round_half_away_inplace(coeffs, work[1])
        coeffs *= tables
        _reconstruct(coeffs, offsets, dst, work)
        if c == 3:
            _ycbcr_to_rgb(dst, "full", dst, work[1])
        else:
            np.clip(dst, 0.0, 1.0, out=dst)
        if quantize_output:
            _quantize_8bit(dst, dst, work[1])
    return out


def video_codec_simulate(img: np.ndarray, qstep: float, deadzone: float = 0.0) -> np.ndarray:
    """Deadzone-quantize the 8x8 DCT of every channel; float reconstruction.

    Unlike jpeg_simulate this works directly on the stored channels and
    skips the final 8-bit snap, approximating a codec's internal
    reconstruction rather than a decoded file. ``qstep`` and ``deadzone``
    are deadzone_quantize_block's, checked the same way.
    """
    check_fields({"qstep": qstep, "deadzone": deadzone}, STEP_FIELDS["video_codec"],
                 "video_codec_simulate: ")
    return _video_codec_simulate(check_planes(img), qstep, deadzone)


def _video_codec_simulate(data: np.ndarray, qstep: float, deadzone: float, out=None) -> np.ndarray:
    out = np.empty_like(data) if out is None else out
    bands = _bands(data.shape[1], data.shape[2], BLOCK)
    work = _dct_workspace(data[:, bands[0]])
    for rows in bands:
        coeffs = _shifted_coeffs(data[:, rows], 128.0, work)
        _deadzone_quantize_inplace(coeffs, qstep, deadzone, work[1])
        dst = out[:, rows]
        _reconstruct(coeffs, 128.0, dst, work)
        np.clip(dst, 0.0, 1.0, out=dst)
    return out


def tv_range_squeeze(img: np.ndarray) -> np.ndarray:
    """Round trip through 8-bit limited-range coding and back to full range.

    Stretching the 219 limited luma codes back over 256 slots leaves
    periodic empty histogram bins: the comb signature of TV-range video.
    """
    return _tv_range_squeeze(check_planes(img))


def _tv_range_squeeze(data: np.ndarray) -> np.ndarray:
    if data.shape[0] == 3:
        limited = _quantize_8bit(_rgb_to_ycbcr(data, "limited"))
        return _quantize_8bit(_ycbcr_to_rgb(limited, "limited"))
    y = np.clip(data, 0.0, 1.0)
    y = round_half_away(((16.0 + 219.0 * y) / 255.0) * 255.0) / 255.0
    y = np.clip((255.0 * y - 16.0) / 219.0, 0.0, 1.0)
    return round_half_away(y * 255.0) / 255.0


# --- declarative degradation chains ----------------------------------------------

MAX_JITTER = 255.0  # a larger color_jitter factor takes the faintest 8-bit step past white
_JITTER_KEYS = ("brightness", "contrast", "saturation")


# Each chain step's keys, by the step's name in a chain file. A step that
# leaves out an optional key takes its default.
STEP_FIELDS = {
    **BLUR_FIELDS,
    "resize": (Field("shorter_side", "int", 1, MAX_SIDE, required=True),),
    "jpeg": (Field("quality", "int", 1, 100, required=True),),
    # 8-bit coefficients divided by a qstep of at least ZERO_EPS stay finite
    "video_codec": (Field("qstep", "number", ZERO_EPS, required=True),
                    Field("deadzone", "number", 0, 1, ends="[)", default=0.0)),
    "tv_range_squeeze": (),
    "color_jitter": tuple(Field(key, "pair", 0, MAX_JITTER, default=(1.0, 1.0))
                          for key in _JITTER_KEYS),
    "quantize_8bit": (),
}

# Each chain step's plane kernel, kernel(data, step, rng, out), by the same names;
# ``out`` is ``data`` where the chain owns it, else None, or the frame's plane that the
# last step of apply_chain's leading run writes. color_jitter draws its factors in
# _JITTER_KEYS order, each uniform over its pair, a [1.0, 1.0] pair too.
_KERNELS = {
    "motion_blur": lambda data, step, rng, out: _motion_blur(data, step["length"],
                                                             step["angle_deg"], out),
    "gaussian_blur": lambda data, step, rng, out: _gaussian_blur(data, step["sigma"]),
    "resize": lambda data, step, rng, out: _shorter_side_resize(
        data, step["shorter_side"], None if out is data else out),
    "jpeg": lambda data, step, rng, out: _jpeg_simulate(data, step["quality"], True, out),
    "video_codec": lambda data, step, rng, out: _video_codec_simulate(
        data, step["qstep"], step["deadzone"], out),
    "tv_range_squeeze": lambda data, step, rng, out: _tv_range_squeeze(data),
    "color_jitter": lambda data, step, rng, out: _color_jitter(
        data, *[float(rng.uniform(*step[key])) for key in _JITTER_KEYS]),
    "quantize_8bit": lambda data, step, rng, out: _quantize_8bit(data, out),
}
# The steps whose kernels work on each channel alone, drawing nothing from the
# generator: run on one plane at a time, they give the whole frame's bits.
CHANNELWISE = frozenset({"motion_blur", "gaussian_blur", "resize", "video_codec",
                         "quantize_8bit"})


def chain_steps(doc, where: str | Path = "") -> tuple[Mapping, ...]:
    """The steps of the chain document ``doc``, ``{"steps": [step, ...]}``.

    Each step is checked against its STEP_FIELDS row and returned as a
    read-only document ``{"step": name, **keys}`` holding every key of the
    row, each pair a tuple. ``where``, a chain file's path, begins the text
    of any error; step 0 is the first.
    """
    prefix = f"{where}: " if where else ""
    if not (isinstance(doc, Mapping) and isinstance(doc.get("steps"), (list, tuple))
            and doc["steps"]):
        raise InputError(f"{prefix}chain document must be {{'steps': [...]}} "
                         "with at least one step")
    # every other key is unknown
    check_fields({key: value for key, value in doc.items() if key != "steps"}, (), prefix)
    steps = []
    for i, entry in enumerate(doc["steps"]):
        if not isinstance(entry, Mapping) or "step" not in entry:
            raise InputError(f"{prefix}step {i}: bad chain step entry: {reprlib.repr(entry)}")
        name = entry["step"]
        if not isinstance(name, str) or name not in STEP_FIELDS:
            raise InputError(f"{prefix}step {i}: unknown chain step {reprlib.repr(name)}")
        keys = check_fields({key: value for key, value in entry.items() if key != "step"},
                            STEP_FIELDS[name], f"{prefix}step {i} {name!r}: ")
        steps.append(MappingProxyType({"step": name, **with_defaults(keys, STEP_FIELDS[name])}))
    return tuple(steps)


def load_chain(path: str | Path) -> tuple[Mapping, ...]:
    """The steps of the chain file at ``path``, read by the one input-file reader."""
    return chain_steps(read_json(path), path)


def apply_chain(img: np.ndarray, steps: Sequence[Mapping],
                rng: np.random.Generator) -> np.ndarray:
    """Apply the steps ``chain_steps`` returns, in order; randomized steps draw from rng.

    ``img`` is an image's planes, or a frame's (c, h, w) uint8 codes as
    ``core.load_codes`` returns them. Codes go through the chain's leading run of
    CHANNELWISE steps one plane at a time, each divided by 255 as ``load_image``
    does; the run's last kernel writes each plane after the first into the run's
    frame, the one whole float64 frame. The bits are those of the chain of
    ``load_image``'s planes. Plane kernels pass raw planes on, writing over the
    writeable ones, which the chain allocated: ``check_planes`` views the
    caller's read-only. The result is checked once.
    """
    if not all(isinstance(step, MappingProxyType) for step in steps):
        raise InputError("apply_chain: steps must be those chain_steps returns")
    data = check_planes(img, codes=True)
    if data.dtype == np.uint8:  # ``img`` itself
        lead = next((i for i, step in enumerate(steps) if step["step"] not in CHANNELWISE),
                    len(steps))
        data = None
        for c, codes in enumerate(img):
            dst = None if data is None else data[c : c + 1]
            plane = np.divide(codes, 255.0)[None]
            for i, step in enumerate(steps[:lead], 1):
                plane = _KERNELS[step["step"]](plane, step, rng,
                                               plane if dst is None or i < lead else dst)
            if data is None:
                data = np.empty((len(img), *plane.shape[1:]))
            if plane is not dst:  # the first plane, or the run ended without writing ``dst``
                data[c] = plane[0]
        steps = steps[lead:]
    for step in steps:
        data = _KERNELS[step["step"]](data, step, rng, data if data.flags.writeable else None)
    return check_planes(data)


def derive_sample_seed(master_seed: int, sample_id: str) -> int:
    """Stable per-sample seed, so parallel corpus order cannot change outputs."""
    digest = hashlib.sha256(f"{master_seed}:{sample_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
