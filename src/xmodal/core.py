"""Shared data model: labels, modalities, sample manifests, images, features.

Every operation here is a pure function of its inputs. An image is its
(channels, height, width) float64 planes, checked by ``check_planes``. Every
input file is read by ``read_json`` (manifests line by line through
``parse_json``) and checked by ``check_fields`` against its kind's field table.
A manifest record is the checked object of its line, as a read-only mapping.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import reprlib
import sys
import threading
from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from types import MappingProxyType, NoneType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar, Union

import numpy as np

from .errors import InputError, NumericalError, XmodalError

# BT.601 luma coefficients
KR = 0.299
KG = 0.587
KB = 0.114


@dataclass(frozen=True)
class ScoredPrediction:
    """Probability-of-fake score paired with ground truth, for evaluation."""

    score: float
    label: str  # one of LABELS
    subset: str

    def __post_init__(self):
        check_fields({"score": self.score}, (SCORE_ROW,), "ScoredPrediction: ")
        check_choice(self.label, "label", LABELS, "ScoredPrediction: ")


# --- input files: one reader, one field checker ------------------------------


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file; InputError naming the path and line if it is not UTF-8."""
    blob = Path(path).read_bytes()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None


def parse_json(text: str, path: str | Path, line: int = 1):
    """The JSON value of ``text``, which starts on ``line`` of ``path``.

    Raises InputError naming both where ``text`` is not JSON, nests too deeply
    or holds an integer longer than Python converts.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        line, reason = line + exc.lineno - 1, f"{exc.msg} (column {exc.colno})"
    except (ValueError, RecursionError) as exc:
        reason = str(exc)
    raise InputError(f"{path}: line {line}: invalid JSON: {reason}")


_GC_PAUSE = threading.Lock()


def read_json(path: str | Path):
    """The JSON document in a config, chain, checkpoint or feature file.

    The cyclic GC is off while the document is parsed: the containers
    ``json.loads`` builds hold no cycles, and the collections they would
    trigger cost a 30k-record feature file about a quarter of its parse
    time. The caller's GC state is restored, and ``_GC_PAUSE`` lets one
    thread at a time turn it off, so threads reading at once cannot leave
    it off.
    """
    text = read_text(path)
    with _GC_PAUSE:
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            return parse_json(text, path)
        finally:
            if gc_was_on:
                gc.enable()


@dataclass(frozen=True)
class Field:
    """One key of a JSON object in an input file, and the values it takes.

    ``kind`` is "int" (a JSON integer, never true/false), "number" (a finite
    integer or float), "string" (at least ``lo`` characters), "choice" (one of
    ``choices``), "pair" (numbers ``[a, b]`` with a <= b) or "object". Numbers
    lie between ``lo`` and ``hi``, each bound closed or open as ``ends`` says
    ("[]", "(]", "[)" or "()"). With ``length``, the value is a list of that
    many numbers (0: any number of them). ``default`` stands in for an absent
    optional key where the table's reader fills one in. ``help`` is a
    command-line option's one-line meaning, which its ``--help`` prints.
    """

    key: str
    kind: str
    lo: float = -math.inf
    hi: float = math.inf
    ends: str = "[]"
    choices: tuple = ()
    required: bool = False
    null: bool = False  # JSON null passes too
    length: Optional[int] = None
    default: object = None
    help: str = ""


# The bounds below are shared by the pixel and learning modules' field tables
# and by the CLI's option rows, which are built when the CLI loads.
#
# The size budget of a chain step: no step makes an image side, or a blur
# kernel's side, longer than MAX_SIDE pixels. A line kernel of `length` samples
# spans at most `length` pixels, and a Gaussian one 2*ceil(3*sigma) + 1.
MAX_SIDE = 1 << 12
MAX_SIGMA = (MAX_SIDE - 1) // 6
ZERO_EPS = 1e-6  # |coefficient| below this counts as an exact post-quantization zero
# a training seed: `train` in a config file and a checkpoint, and `train --seed`
SEED_ROW = Field("seed", "int", 0, default=0)
# `evaluate --frames` and the T of metrics.select_frame_indices; a ScoredPrediction's score
FRAMES_ROW = Field("frames", "int", 1, default=1, help="frames per video for logit averaging")
SCORE_ROW = Field("score", "number", 0, 1)
# The values of the choices that the CLI's rows and the library share. A label's
# or a modality's code is its index here: real 0, fake 1; image 0, video 1.
LABELS = ("real", "fake")
MODALITIES = ("image", "video")
WINDOWS = ("none", "hann")  # rapsd's window
AGGREGATIONS = ("subset-mean", "overall")  # the headline of an evaluation report


def describe(field: Field) -> str:
    """What a value of ``field`` must be, in the words of the errors and the README."""
    lo, hi = (f"{v:g}" if isinstance(v, float) else str(v) for v in (field.lo, field.hi))
    if field.kind == "choice":
        text = "one of " + ", ".join(map(repr, field.choices))
    elif field.kind == "string":
        text = "a non-empty string" if field.lo > 0 else "a string"
    elif field.kind == "object":
        text = "a JSON object"
    elif field.kind == "pair":
        text = f"a pair [a, b] of numbers with {lo} <= a <= b <= {hi}"
    else:
        one, many = ("an integer", "integers") if field.kind == "int" else (
            "a finite number", "finite numbers")
        count = field.length or "any number of"
        text = one if field.length is None else f"a list of {count} {many}"
        if field.lo > -math.inf and field.hi < math.inf:
            text += f" in {field.ends[0]}{lo}, {hi}{field.ends[1]}"
        elif field.lo > -math.inf:
            text += f" {'>' if field.ends[0] == '(' else '>='} {lo}"
        elif field.hi < math.inf:
            text += f" {'<' if field.ends[1] == ')' else '<='} {hi}"
    return text + (" or null" if field.null else "")


def _number_fits(field: Field, value, integer: bool) -> bool:
    # a library caller's NumPy integers and floats count too; JSON holds none
    value = float(value) if isinstance(value, np.floating) else value
    kinds = (int, np.integer) if integer else (int, np.integer, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        return False
    # a number is neither NaN nor beyond float64's range (an integer may be)
    if not (integer or abs(value) <= sys.float_info.max):
        return False
    lo_ok = field.lo < value if field.ends[0] == "(" else field.lo <= value
    return lo_ok and (value < field.hi if field.ends[1] == ")" else value <= field.hi)


def _fits(field: Field, value) -> bool:
    if value is None:
        return field.null
    if field.kind == "choice":
        return value in field.choices
    if field.kind == "string":
        return isinstance(value, str) and len(value) >= field.lo
    if field.kind == "object":
        return isinstance(value, dict)
    if field.kind == "pair":
        return (isinstance(value, (list, tuple)) and len(value) == 2
                and all(_number_fits(field, v, False) for v in value) and value[0] <= value[1])
    integer = field.kind == "int"
    if field.length is None:
        return _number_fits(field, value, integer)
    return (isinstance(value, (list, tuple)) and len(value) == (field.length or len(value))
            and all(_number_fits(field, v, integer) for v in value))


def check_fields(doc, table: Sequence[Field], where: str, prefix: str = "",
                 extra: bool = False) -> dict:
    """``doc``, checked to be a JSON object whose keys are ``table``'s and whose
    values fit their fields. With ``extra``, keys off the table pass unchecked.

    Raises InputError naming ``where`` (the file, and the line, record or step
    in it) and the key, spelled ``prefix + key``.
    """
    if not isinstance(doc, dict):
        what = f"{prefix[:-1]!r} " if prefix else ""
        raise InputError(f"{where}{what}must be a JSON object, got {reprlib.repr(doc)}")
    fields = {field.key: field for field in table}
    for key, value in doc.items():
        if key not in fields:
            if not extra:
                raise InputError(f"{where}{prefix + key!r}: unknown key")
        elif not _fits(fields[key], value):
            raise InputError(f"{where}{prefix + key!r}: must be {describe(fields[key])}, "
                             f"got {reprlib.repr(value)}")
    for field in table:
        if field.required and field.key not in doc:
            raise InputError(f"{where}{prefix + field.key!r}: missing key")
    return doc


def check_choice(value, key: str, choices: tuple, where: str) -> None:
    """Raise InputError, in ``check_fields``' words naming ``where`` and ``key``,
    unless ``value`` is one of ``choices``."""
    if value not in choices:
        check_fields({key: value}, (Field(key, "choice", choices=choices),), where)


def with_defaults(doc, table: Sequence[Field], where: str, prefix: str = "") -> Mapping:
    """``doc``, checked by ``check_fields`` against ``table`` (errors name ``where``
    and ``prefix + key``), as a read-only mapping of every key of ``table`` in
    table order: an absent key takes its field's default, and a list becomes a tuple."""
    check_fields(doc, table, where, prefix)
    filled = {}
    for field in table:
        value = doc.get(field.key, field.default)
        filled[field.key] = tuple(value) if isinstance(value, list) else value
    return MappingProxyType(filled)


def _column(field: Field, values: list):
    """``values``, or None unless each fits ``field`` by ``_fits``: a scalar once per distinct
    (type, value), since True == 1 == 1.0; lists of ``length`` numbers at once, ints exactly."""
    if field.length is None:
        try:
            distinct = set(values)
        except TypeError:  # a list or an object
            return None
        if set(map(type, distinct)) - {str, NoneType} and set(map(type, values)) - {int, NoneType}:
            distinct = [value for _, value in set(zip(map(type, values), values))]
        return values if all(_fits(field, value) for value in distinct) else None
    if not (set(map(type, values)) <= {list, tuple} and set(map(len, values)) == {field.length}):
        return None
    items = list(chain(*values))
    if list(map(type, items)).count(float) < len(items) and not all(
            type(v) is float or type(v) is int and _number_fits(field, v, False) for v in items):
        return None
    x = np.array(items, np.float64).reshape(-1, field.length)
    return x if np.isfinite(x).all() and all(
        _number_fits(field, v, False) for v in (x.min(), x.max())) else None


def check_columns(records: list, table: Sequence[Field], where: Callable) -> dict:
    """``table``'s keys over ``records`` as ``_column``s, an absent optional key read as its
    default. Where one fails, ``check_fields`` names the first bad record, at ``where(i, rec)``."""
    if set(map(type, records)) <= {dict}:
        columns = {field.key: _column(field, list(map(dict.get, records, repeat(field.key), repeat(
            object() if field.required else field.default)))) for field in table}
        if all(column is not None for column in columns.values()):
            return columns
    for i, rec in enumerate(records):
        check_fields(rec, table, where(i, rec), extra=True)
    raise AssertionError("check_columns failed a column that check_fields passes")


# one line of a manifest
MANIFEST_FIELDS = (
    Field("id", "string", lo=1, required=True),
    Field("path", "string", required=True),
    Field("label", "choice", choices=LABELS, required=True),
    Field("modality", "choice", choices=MODALITIES, required=True),
    Field("subset", "string", lo=1, required=True),
    Field("frame_index", "int", 0),
    Field("frame_count", "int", 1),
)


def _check_record(doc, where: str) -> dict:
    """A manifest record, checked against MANIFEST_FIELDS and its frame count,
    with its keys in table order."""
    check_fields(doc, MANIFEST_FIELDS, where)
    frame_index, frame_count = doc.get("frame_index"), doc.get("frame_count")
    if None not in (frame_index, frame_count) and frame_index >= frame_count:
        raise InputError(f"{where}'frame_index': must be below frame_count {frame_count}, "
                         f"got {frame_index}")
    return {field.key: doc[field.key] for field in MANIFEST_FIELDS if field.key in doc}


def _manifest_records(docs: Iterable[tuple[int, object]], path, unit: str) -> list[dict]:
    """The checked records of a manifest's ``(number, object)`` pairs: each
    checked by ``_check_record`` and named as ``unit`` and number, their ids
    unique, and at least one of them."""
    records: list[dict] = []
    seen: set[str] = set()
    for number, doc in docs:
        rec = _check_record(doc, f"{path}: {unit} {number}: ")
        if rec["id"] in seen:
            raise InputError(f"{path}: duplicate sample id {rec['id']!r} ({unit} {number})")
        seen.add(rec["id"])
        records.append(rec)
    if not records:
        raise InputError(f"{path}: manifest contains no records")
    return records


def parse_manifest(path: str | Path) -> tuple[Mapping, ...]:
    """The records of a JSON-Lines manifest, in file order.

    One record per line, each a read-only mapping with its keys in
    MANIFEST_FIELDS order; unknown keys are rejected so that typos surface
    immediately. Blank lines are ignored.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"manifest not found: {path}")
    lines = enumerate(read_text(path).split("\n"), start=1)
    docs = ((line_no, parse_json(line, path, line_no)) for line_no, line in lines if line.strip())
    return tuple(map(MappingProxyType, _manifest_records(docs, path, "line")))


def write_manifest(records: Iterable[Mapping], path: str | Path) -> None:
    """Write manifest records as JSON-Lines, checked as ``parse_manifest`` checks
    its lines and with their keys in MANIFEST_FIELDS order, so the file parses.
    Nothing is written unless every record passes."""
    checked = _manifest_records(enumerate(map(dict, records)), path, "record")
    Path(path).write_text("".join(json.dumps(rec) + "\n" for rec in checked), encoding="utf-8")


PNM_DIGITS = 9  # a width, height or maxval below a billion: no frame is that large


def _read_pnm_header(blob: bytes, path: Path) -> tuple[bytes, int, int, int, int]:
    """Return (magic, width, height, maxval, payload_offset)."""
    if len(blob) < 2:
        raise InputError(f"{path}: not a PPM/PGM file")
    magic = blob[:2]
    if magic not in (b"P5", b"P6"):
        raise InputError(f"{path}: unsupported magic {magic!r}")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        if pos >= len(blob):
            raise InputError(f"{path}: header ended early")
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
            if pos - start > PNM_DIGITS:
                raise InputError(f"{path}: header number longer than {PNM_DIGITS} digits")
            fields.append(int(blob[start:pos]))
        else:
            raise InputError(f"{path}: bad header byte {ch!r}")
    if pos >= len(blob):
        raise InputError(f"{path}: missing payload")
    # exactly one whitespace byte separates maxval from the payload
    if blob[pos : pos + 1] not in b" \t\r\n":
        raise InputError(f"{path}: malformed header terminator")
    pos += 1
    width, height, maxval = fields
    return magic, width, height, maxval, pos


def load_codes(path: str | Path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) file with maxval 255.

    Returns its codes as a read-only (channels, height, width) uint8 view of
    the file's bytes; P6's interleaved RGB is returned planar.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"image not found: {path}")
    blob = path.read_bytes()
    magic, width, height, maxval, offset = _read_pnm_header(blob, path)
    if maxval != 255:
        raise InputError(f"{path}: only maxval 255 supported, got {maxval}")
    if width < 1 or height < 1:
        raise InputError(f"{path}: bad dimensions {width}x{height}")
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    if len(blob) - offset < expected:
        raise InputError(f"{path}: expected {expected} payload bytes, got {len(blob) - offset}")
    raw = np.frombuffer(blob, np.uint8, count=expected, offset=offset)
    if channels == 1:
        return raw.reshape(1, height, width)
    return raw.reshape(height, width, 3).transpose(2, 0, 1)


def check_planes(img, channels: tuple = (1, 3), codes: bool = False) -> np.ndarray:
    """``img`` as an image's planes: a read-only C-contiguous (channels, height,
    width) float64 view, copied only where ``img`` has another dtype or layout.

    InputError unless ``img`` is an array of numbers whose shape is 3-D with one
    of ``channels`` and no zero side, NumericalError if a sample is not finite.
    With ``codes``, uint8 planes (8-bit codes) are checked by their shape alone
    and returned as they are.
    """
    keep = codes and getattr(img, "dtype", None) == np.uint8
    try:
        data = img if keep else np.ascontiguousarray(img, dtype=np.float64).view()
    except (ValueError, TypeError):  # ragged nesting, or a value that is not a number
        raise InputError(f"image planes must be an array of numbers, "
                         f"got {reprlib.repr(img)}") from None
    if data.ndim != 3 or data.shape[0] not in channels or 0 in data.shape:
        raise InputError(f"image planes must have shape ({' or '.join(map(str, channels))}, "
                         f"height, width), got {np.shape(img)}")
    if keep:
        return data
    if not np.isfinite(data).all():
        raise NumericalError("image data must be finite")
    data.setflags(write=False)
    return data


def load_image(path: str | Path) -> np.ndarray:
    """Load a binary PGM (P5) or PPM (P6) file with maxval 255 as planes.

    Pixel value u maps to u/255; P6 payload is interleaved RGB and is
    returned planar.
    """
    planar = load_codes(path)
    data = np.empty(planar.shape)
    np.divide(planar, 255.0, out=data)
    return data


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


def load_luma(path: str | Path, size: Optional[int] = None) -> np.ndarray:
    """Load a PGM/PPM file straight to its 1-channel BT.601 luma.

    Bit for bit ``pixelops.to_luma(load_image(path))``: each code plane is
    divided by 255, weighted by KR, KG, KB and summed left to right, without
    building the RGB planes. With ``size``, only the ``_fit_to_square`` window
    of the codes is converted.
    """
    codes = load_codes(path)
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
    return luma


# Kernels that stream whole frames take bands of rows of about 32k samples per
# plane, which stay in a core's L2 cache with their temporaries (2 MiB per core
# on the Xeon this was tuned on; whole frames made the codecs ~2x slower). Smaller
# bands mean more NumPy calls, which were slower at 2 threads.
_BAND_SAMPLES = 1 << 15


def _bands(rows: int, width: int, multiple: int = 1) -> list[slice]:
    """Slices of ``rows`` rows of ``width`` samples, each a whole number of ``multiple`` rows."""
    step = multiple * max(1, _BAND_SAMPLES // (multiple * width))
    return [slice(top, top + step) for top in range(0, rows, step)]


def save_image(img: np.ndarray, path: str | Path) -> None:
    """Write an image's planes as binary PGM/PPM (maxval 255).

    Samples are clamped to [0, 1] and rounded half-away-from-zero, so a
    load -> save round trip of an 8-bit file is byte-identical.
    """
    data = check_planes(img)
    c, h, w = data.shape
    path = Path(path)
    # interleaved (height, width, channels) codes, cast from the planes a band of rows at a time
    codes = np.empty((h, w, c), dtype=np.uint8)
    for rows in _bands(h, w * c):
        scaled = np.clip(data[:, rows], 0.0, 1.0)
        scaled *= 255.0
        scaled += 0.5
        np.floor(scaled, out=scaled)
        np.copyto(codes[rows], scaled.transpose(1, 2, 0), casting="unsafe")
    magic = b"P5" if c == 1 else b"P6"
    with path.open("wb") as fh:
        fh.write(b"%s\n%d %d\n255\n" % (magic, w, h))
        fh.write(codes.data)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The CSV file of ``header`` and ``rows``, one line each: None is an empty
    cell and a float its ``repr``, so a value reads back bit for bit."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


T = TypeVar("T")

# Samples submitted but not yet yielded, per worker thread: enough to keep
# every worker busy while the consumer reduces one result.
IN_FLIGHT_PER_THREAD = 2


def _outcomes(records: Iterable[Mapping], fn: Callable, loader: Callable,
              threads: int) -> Iterator[tuple[Mapping, Union[T, Exception]]]:
    """``(record, fn(record, loader(record["path"])))`` in record order, or
    ``(record, exception)`` where that raised XmodalError or OSError."""
    if threads <= 1:
        for rec in records:
            # ``img`` stays bound until the next load replaces it. Freeing it
            # first lets glibc malloc trim the heap after every sample, so the
            # next sample's arrays fault in fresh pages: 15x the page faults
            # and +30% wall time for ``analyze rapsd`` on 108 360x640 frames.
            try:
                img = loader(rec["path"])
                result = fn(rec, img)
            except (XmodalError, OSError) as exc:
                result = exc
            yield rec, result
        return

    def run(rec: Mapping):
        try:
            return fn(rec, loader(rec["path"]))
        except (XmodalError, OSError) as exc:
            return exc

    import concurrent.futures  # only a run with a pool pays for its import

    window = IN_FLIGHT_PER_THREAD * threads
    pending: deque = deque()
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=threads)
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


def iter_samples(records: Iterable[Mapping], fn: Callable[[Mapping, np.ndarray], T],
                 loader: Callable[[str], np.ndarray], failures: list[dict], what: str,
                 threads: int = 1) -> Iterator[T]:
    """Load each manifest record's ``path`` with ``loader``, apply
    ``fn(record, loaded)`` and yield the results in record order.

    This is the one per-sample corpus loop and its failure ledger. A sample
    whose loading or ``fn`` raises XmodalError or OSError is not yielded: it
    is appended to ``failures`` as the summary record ``{"id", "error"}``.
    Once the records end, InputError (``all N samples failed <what>``) if
    none succeeded. With ``threads > 1`` samples run on a thread pool, with
    at most ``IN_FLIGHT_PER_THREAD * threads`` of them submitted and not yet
    consumed, so memory is bounded by that window rather than by the corpus size.
    """
    n_ok = 0
    for rec, result in _outcomes(records, fn, loader, threads):
        if isinstance(result, Exception):
            failures.append({"id": rec["id"], "error": str(result)})
        else:
            n_ok += 1
            yield result
    if n_ok == 0:
        raise InputError(f"all {len(failures)} samples failed {what}")
