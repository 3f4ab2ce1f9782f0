"""Shared data model: labels, modalities, sample manifests, images, features.

All types are immutable after construction; every operation here is a pure
function of its inputs.
"""

from __future__ import annotations

import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TypeVar, Union

import numpy as np

from .errors import (
    AllSamplesFailedError,
    DuplicateIdError,
    MalformedLineError,
    MissingFileError,
    NonFiniteImageError,
    TruncatedDataError,
    UnknownLabelError,
    UnknownModalityError,
    UnsupportedFormatError,
    XmodalError,
)

# BT.601 luma coefficients
KR = 0.299
KG = 0.587
KB = 0.114


class Modality(Enum):
    """Input modality of a sample. Numeric codes: image=0, video=1."""

    IMAGE = "image"
    VIDEO = "video"

    @property
    def numeric(self) -> int:
        return 0 if self is Modality.IMAGE else 1

    @classmethod
    def from_string(cls, value: str) -> "Modality":
        if isinstance(value, str):
            try:
                return cls(value)
            except ValueError:
                pass
        raise UnknownModalityError(value)


class Label(Enum):
    """Ground-truth class of a sample. Numeric codes: real=0, fake=1."""

    REAL = "real"
    FAKE = "fake"

    @property
    def numeric(self) -> int:
        return 0 if self is Label.REAL else 1

    @classmethod
    def from_string(cls, value: str) -> "Label":
        if isinstance(value, str):
            try:
                return cls(value)
            except ValueError:
                pass
        raise UnknownLabelError(value)


@dataclass(frozen=True)
class SampleRecord:
    """One inventory entry: a labeled, modality-tagged media file on disk."""

    id: str
    path: str
    label: Label
    modality: Modality
    subset: str
    frame_index: Optional[int] = None
    frame_count: Optional[int] = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("sample id must be non-empty")
        if not self.subset:
            raise ValueError(f"sample {self.id!r}: subset must be non-empty")
        if self.frame_index is not None and self.frame_index < 0:
            raise ValueError(f"sample {self.id!r}: frame_index must be >= 0")
        if self.frame_count is not None and self.frame_count <= 0:
            raise ValueError(f"sample {self.id!r}: frame_count must be > 0")
        if (
            self.frame_index is not None
            and self.frame_count is not None
            and self.frame_index >= self.frame_count
        ):
            raise ValueError(
                f"sample {self.id!r}: frame_index {self.frame_index} "
                f"out of range for frame_count {self.frame_count}"
            )


@dataclass(frozen=True)
class Manifest:
    """Ordered, id-unique collection of sample records."""

    records: tuple[SampleRecord, ...]
    source_path: str = ""

    def __post_init__(self):
        if not self.records:
            raise ValueError("manifest must contain at least one record")
        seen: set[str] = set()
        for rec in self.records:
            if rec.id in seen:
                raise DuplicateIdError(rec.id)
            seen.add(rec.id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass(frozen=True)
class ImageBuffer:
    """Planar floating-point pixel data, nominal range [0, 1].

    ``data`` has shape (channels, height, width) with channels 1 or 3.
    The array is made read-only at construction; operations return new
    buffers instead of mutating.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError("image data must have shape (channels, height, width)")
        c, h, w = arr.shape
        if c not in (1, 3):
            raise ValueError(f"channel count must be 1 or 3, got {c}")
        if h < 1 or w < 1:
            raise ValueError("image dimensions must be positive")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteImageError("image data must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class ScoredPrediction:
    """Probability-of-fake score paired with ground truth, for evaluation."""

    score: float
    label: Label
    subset: str

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {self.score}")


_REQUIRED_KEYS = {"id", "path", "label", "modality", "subset"}
_OPTIONAL_KEYS = {"frame_index", "frame_count"}


def _record_from_json(obj: dict, line_no: int) -> SampleRecord:
    if not isinstance(obj, dict):
        raise MalformedLineError(line_no, "record must be a JSON object")
    keys = set(obj)
    unknown = keys - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise MalformedLineError(line_no, f"unknown keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - keys
    if missing:
        raise MalformedLineError(line_no, f"missing keys: {sorted(missing)}")
    for key in ("id", "path", "subset"):
        if not isinstance(obj[key], str):
            raise MalformedLineError(line_no, f"{key!r} must be a string")
    if not isinstance(obj["label"], str):
        raise MalformedLineError(line_no, "'label' must be a string")
    if not isinstance(obj["modality"], str):
        raise MalformedLineError(line_no, "'modality' must be a string")
    for key in _OPTIONAL_KEYS:
        if key in obj and (isinstance(obj[key], bool) or not isinstance(obj[key], int)):
            raise MalformedLineError(line_no, f"{key!r} must be an integer")
    try:
        label = Label.from_string(obj["label"])
    except UnknownLabelError:
        raise UnknownLabelError(obj["label"], line_no) from None
    try:
        modality = Modality.from_string(obj["modality"])
    except UnknownModalityError:
        raise UnknownModalityError(obj["modality"], line_no) from None
    try:
        return SampleRecord(
            id=obj["id"],
            path=obj["path"],
            label=label,
            modality=modality,
            subset=obj["subset"],
            frame_index=obj.get("frame_index"),
            frame_count=obj.get("frame_count"),
        )
    except ValueError as exc:
        raise MalformedLineError(line_no, str(exc)) from None


def parse_manifest(path: str | Path) -> Manifest:
    """Parse a JSON-Lines manifest, preserving record order.

    One record per line; unknown keys are rejected so that typos surface
    immediately. Blank lines are ignored.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"manifest not found: {path}")
    records: list[SampleRecord] = []
    seen: dict[str, int] = {}
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise MalformedLineError(line_no, f"invalid JSON: {exc.msg}") from None
            rec = _record_from_json(obj, line_no)
            if rec.id in seen:
                raise DuplicateIdError(rec.id, line_no)
            seen[rec.id] = line_no
            records.append(rec)
    if not records:
        raise MalformedLineError(0, f"manifest {path} contains no records")
    return Manifest(records=tuple(records), source_path=str(path))


def write_manifest(manifest: Manifest, path: str | Path) -> None:
    """Write a manifest back to JSON-Lines with a fixed key order."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for rec in manifest.records:
            obj = {
                "id": rec.id,
                "path": rec.path,
                "label": rec.label.value,
                "modality": rec.modality.value,
                "subset": rec.subset,
            }
            if rec.frame_index is not None:
                obj["frame_index"] = rec.frame_index
            if rec.frame_count is not None:
                obj["frame_count"] = rec.frame_count
            fh.write(json.dumps(obj, sort_keys=False) + "\n")


def _read_pnm_header(blob: bytes, path: Path) -> tuple[bytes, int, int, int, int]:
    """Return (magic, width, height, maxval, payload_offset)."""
    if len(blob) < 2:
        raise UnsupportedFormatError(f"{path}: not a PPM/PGM file")
    magic = blob[:2]
    if magic not in (b"P5", b"P6"):
        raise UnsupportedFormatError(f"{path}: unsupported magic {magic!r}")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        if pos >= len(blob):
            raise TruncatedDataError(f"{path}: header ended early")
        ch = blob[pos : pos + 1]
        if ch in b" \t\r\n":
            pos += 1
        elif ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] not in b"\r\n":
                pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(blob) and blob[pos : pos + 1].isdigit():
                pos += 1
            fields.append(int(blob[start:pos]))
        else:
            raise UnsupportedFormatError(f"{path}: bad header byte {ch!r}")
    if pos >= len(blob):
        raise TruncatedDataError(f"{path}: missing payload")
    # exactly one whitespace byte separates maxval from the payload
    if blob[pos : pos + 1] not in b" \t\r\n":
        raise UnsupportedFormatError(f"{path}: malformed header terminator")
    pos += 1
    width, height, maxval = fields
    return magic, width, height, maxval, pos


def _read_pnm(path: Path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) file with maxval 255.

    Returns its codes as a (channels, height, width) uint8 view; P6's
    interleaved RGB is returned planar.
    """
    if not path.is_file():
        raise MissingFileError(f"image not found: {path}")
    blob = path.read_bytes()
    magic, width, height, maxval, offset = _read_pnm_header(blob, path)
    if maxval != 255:
        raise UnsupportedFormatError(f"{path}: only maxval 255 supported, got {maxval}")
    if width < 1 or height < 1:
        raise UnsupportedFormatError(f"{path}: bad dimensions {width}x{height}")
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    payload = blob[offset : offset + expected]
    if len(payload) < expected:
        raise TruncatedDataError(
            f"{path}: expected {expected} payload bytes, got {len(payload)}"
        )
    raw = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return raw.reshape(1, height, width)
    return raw.reshape(height, width, 3).transpose(2, 0, 1)


def load_image(path: str | Path) -> ImageBuffer:
    """Load a binary PGM (P5) or PPM (P6) file with maxval 255.

    Pixel value u maps to u/255; P6 payload is interleaved RGB and is
    returned planar.
    """
    planar = _read_pnm(Path(path))
    data = np.empty(planar.shape)
    np.divide(planar, 255.0, out=data)
    return ImageBuffer(data)


def _fit_to_square(planes: np.ndarray, size: int) -> np.ndarray:
    """Center-crop the last two axes to size, edge-padding first where smaller."""
    h, w = planes.shape[-2:]
    pad_h = max(size - h, 0)
    pad_w = max(size - w, 0)
    if pad_h or pad_w:
        margins = ((pad_h // 2, pad_h - pad_h // 2), (pad_w // 2, pad_w - pad_w // 2))
        planes = np.pad(planes, ((0, 0),) * (planes.ndim - 2) + margins, mode="edge")
        h, w = planes.shape[-2:]
    y0 = (h - size) // 2
    x0 = (w - size) // 2
    return planes[..., y0 : y0 + size, x0 : x0 + size]


def load_luma(path: str | Path, size: Optional[int] = None) -> ImageBuffer:
    """Load a PGM/PPM file straight to its 1-channel BT.601 luma.

    Bit for bit ``pixelops.to_luma(load_image(path))``: each code plane is
    divided by 255, weighted by KR, KG, KB and summed left to right, without
    building the RGB planes. With ``size``, only the ``_fit_to_square`` window
    of the codes is converted.
    """
    codes = _read_pnm(Path(path))
    if size is not None:
        codes = _fit_to_square(codes, size)
    luma = np.empty((1,) + codes.shape[1:])
    np.divide(codes[0], 255.0, out=luma[0])
    if len(codes) == 3:
        luma[0] *= KR
        term = np.empty_like(luma[0])
        for plane, weight in zip(codes[1:], (KG, KB)):
            np.divide(plane, 255.0, out=term)
            term *= weight
            luma[0] += term
    return ImageBuffer(luma)


def save_image(img: ImageBuffer, path: str | Path) -> None:
    """Write an ImageBuffer as binary PGM/PPM (maxval 255).

    Samples are clamped to [0, 1] and rounded half-away-from-zero, so a
    load -> save round trip of an 8-bit file is byte-identical.
    """
    path = Path(path)
    scaled = np.clip(img.data, 0.0, 1.0)
    scaled *= 255.0
    scaled += 0.5
    np.floor(scaled, out=scaled)
    # interleaved (height, width, channels) codes, cast straight from the planes
    codes = np.empty((img.height, img.width, img.channels), dtype=np.uint8)
    np.copyto(codes, scaled.transpose(1, 2, 0), casting="unsafe")
    magic = b"P5" if img.channels == 1 else b"P6"
    with path.open("wb") as fh:
        fh.write(b"%s\n%d %d\n255\n" % (magic, img.width, img.height))
        fh.write(codes.data)


T = TypeVar("T")

# Samples submitted but not yet yielded, per worker thread: enough to keep
# every worker busy while the consumer reduces one result.
IN_FLIGHT_PER_THREAD = 2


def iter_samples(
    records: Iterable[SampleRecord],
    fn: Callable[[SampleRecord, ImageBuffer], T],
    threads: int = 1,
    loader: Callable[[str], ImageBuffer] = load_image,
) -> Iterator[tuple[SampleRecord, Union[T, Exception]]]:
    """Load each record, apply ``fn(record, image)``, yield in record order.

    This is the one per-sample corpus loop. A sample whose loading or ``fn``
    raises XmodalError or OSError is yielded as ``(record, exception)``
    instead of ending the stream. With ``threads > 1`` samples run on a
    thread pool, with at most ``IN_FLIGHT_PER_THREAD * threads`` of them
    submitted and not yet consumed, so memory is bounded by that window
    rather than by the corpus size.
    """
    if threads <= 1:
        for rec in records:
            # ``img`` stays bound until the next load replaces it. Freeing it
            # first lets glibc malloc trim the heap after every sample, so the
            # next sample's arrays fault in fresh pages: 15x the page faults
            # and +30% wall time for ``analyze rapsd`` on 108 360x640 frames.
            try:
                img = loader(rec.path)
                result = fn(rec, img)
            except (XmodalError, OSError) as exc:
                result = exc
            yield rec, result
        return

    def run(rec: SampleRecord):
        try:
            return fn(rec, loader(rec.path))
        except (XmodalError, OSError) as exc:
            return exc

    window = IN_FLIGHT_PER_THREAD * threads
    pending: deque = deque()
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        for rec in records:
            if len(pending) == window:
                done, future = pending.popleft()
                yield done, future.result()
            pending.append((rec, pool.submit(run, rec)))
        while pending:
            done, future = pending.popleft()
            yield done, future.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def successes(
    stream: Iterable[tuple[SampleRecord, Union[T, Exception]]],
    failed: list[tuple[str, str]],
    what: str,
) -> Iterator[T]:
    """Yield the results of ``iter_samples``: the one failure ledger, appending
    each failed sample's ``(id, error text)`` to ``failed``.

    Raises AllSamplesFailedError once the stream ends if no sample succeeded.
    """
    n_ok = 0
    for rec, result in stream:
        if isinstance(result, Exception):
            failed.append((rec.id, str(result)))
        else:
            n_ok += 1
            yield result
    if n_ok == 0:
        raise AllSamplesFailedError(f"all {len(failed)} samples failed {what}")
