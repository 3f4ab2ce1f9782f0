"""Manifest parsing, PPM/PGM IO, the per-sample loop, and shared-type invariants."""

import json
import threading
import time

import numpy as np
import pytest

from xmodal.codecsim import ChainSpec, JpegSimStep, apply_chain
from xmodal.core import (
    IN_FLIGHT_PER_THREAD,
    ImageBuffer,
    Label,
    Manifest,
    Modality,
    SampleRecord,
    iter_samples,
    load_image,
    parse_manifest,
    save_image,
    successes,
    write_manifest,
)
from xmodal.errors import (
    AllSamplesFailedError,
    DuplicateIdError,
    MalformedLineError,
    MissingFileError,
    TruncatedDataError,
    UnknownLabelError,
    UnknownModalityError,
    UnsupportedFormatError,
)

from conftest import write_manifest_file


VALID = {"id": "a", "path": "a.ppm", "label": "real", "modality": "image", "subset": "s"}


class TestEnums:
    def test_serialized_strings(self):
        assert Modality.IMAGE.value == "image"
        assert Modality.VIDEO.value == "video"
        assert Label.REAL.value == "real"
        assert Label.FAKE.value == "fake"

    def test_numeric_codes(self):
        assert (Modality.IMAGE.numeric, Modality.VIDEO.numeric) == (0, 1)
        assert (Label.REAL.numeric, Label.FAKE.numeric) == (0, 1)

    def test_round_trip_through_strings(self):
        for m in Modality:
            assert Modality.from_string(m.value) is m
        for l in Label:
            assert Label.from_string(l.value) is l

    def test_unknown_strings(self):
        with pytest.raises(UnknownLabelError):
            Label.from_string("genuine")
        with pytest.raises(UnknownModalityError):
            Modality.from_string("audio")


class TestParseManifest:
    def test_single_valid_line(self, tmp_path):
        path = write_manifest_file(tmp_path / "m.jsonl", [VALID])
        manifest = parse_manifest(path)
        assert len(manifest) == 1
        rec = manifest.records[0]
        assert rec.id == "a" and rec.label is Label.REAL
        assert rec.modality is Modality.IMAGE and rec.subset == "s"

    def test_order_preserved(self, tmp_path):
        entries = [dict(VALID, id=f"r{i}") for i in range(20)]
        path = write_manifest_file(tmp_path / "m.jsonl", entries)
        manifest = parse_manifest(path)
        assert [r.id for r in manifest.records] == [f"r{i}" for i in range(20)]

    def test_duplicate_id(self, tmp_path):
        path = write_manifest_file(tmp_path / "m.jsonl", [VALID, dict(VALID)])
        with pytest.raises(DuplicateIdError) as err:
            parse_manifest(path)
        assert err.value.sample_id == "a"

    def test_unknown_label_reports_line(self, tmp_path):
        path = write_manifest_file(
            tmp_path / "m.jsonl", [VALID, dict(VALID, id="b", label="genuine")]
        )
        with pytest.raises(UnknownLabelError) as err:
            parse_manifest(path)
        assert err.value.line_number == 2

    def test_unknown_modality(self, tmp_path):
        path = write_manifest_file(tmp_path / "m.jsonl", [dict(VALID, modality="audio")])
        with pytest.raises(UnknownModalityError):
            parse_manifest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            parse_manifest(tmp_path / "nope.jsonl")

    def test_malformed_json_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(VALID) + "\nnot json\n")
        with pytest.raises(MalformedLineError) as err:
            parse_manifest(path)
        assert err.value.line_number == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = write_manifest_file(tmp_path / "m.jsonl", [dict(VALID, labl="real")])
        with pytest.raises(MalformedLineError):
            parse_manifest(path)

    def test_frame_index_bounds(self, tmp_path):
        good = dict(VALID, frame_index=2, frame_count=3)
        path = write_manifest_file(tmp_path / "m.jsonl", [good])
        assert parse_manifest(path).records[0].frame_index == 2
        bad = dict(VALID, frame_index=3, frame_count=3)
        path = write_manifest_file(tmp_path / "m2.jsonl", [bad])
        with pytest.raises(MalformedLineError):
            parse_manifest(path)

    def test_write_then_parse_round_trip(self, tmp_path):
        entries = [
            dict(VALID, id="x", frame_index=0, frame_count=9),
            dict(VALID, id="y", label="fake", modality="video"),
        ]
        path = write_manifest_file(tmp_path / "m.jsonl", entries)
        manifest = parse_manifest(path)
        out = tmp_path / "copy.jsonl"
        write_manifest(manifest, out)
        again = parse_manifest(out)
        assert again.records == manifest.records


class TestImageBuffer:
    def test_shape_properties(self):
        buf = ImageBuffer(np.zeros((3, 4, 5)))
        assert (buf.channels, buf.height, buf.width) == (3, 4, 5)

    def test_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            ImageBuffer(np.zeros((2, 4, 4)))

    def test_rejects_non_finite(self):
        data = np.zeros((1, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ImageBuffer(data)

    def test_data_is_read_only(self):
        buf = ImageBuffer(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            buf.data[0, 0, 0] = 1.0


class TestImageIO:
    def test_pgm_endpoint_mapping(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 255]))
        buf = load_image(path)
        assert (buf.width, buf.height, buf.channels) == (2, 1, 1)
        assert buf.data[0, 0, 0] == 0.0
        assert buf.data[0, 0, 1] == 1.0

    def test_ppm_direct_scaling(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([128, 128, 128]))
        buf = load_image(path)
        assert np.allclose(buf.data[:, 0, 0], 128 / 255)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(TruncatedDataError):
            load_image(path)

    def test_unsupported_magic(self, tmp_path):
        path = tmp_path / "t.pbm"
        path.write_bytes(b"P4\n4 4\n" + bytes(4))
        with pytest.raises(UnsupportedFormatError):
            load_image(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(UnsupportedFormatError):
            load_image(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_image(tmp_path / "nope.pgm")

    def test_header_comments_accepted(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 1, 2, 3]))
        buf = load_image(path)
        assert buf.data[0, 1, 1] == 3 / 255

    @pytest.mark.parametrize("seed,magic", [(0, "pgm"), (1, "ppm"), (2, "ppm")])
    def test_lossless_round_trip(self, tmp_path, seed, magic):
        rng = np.random.default_rng(seed)
        channels = 1 if magic == "pgm" else 3
        codes = rng.integers(0, 256, size=(channels, 5, 7), dtype=np.uint8)
        original = tmp_path / f"t.{magic}"
        header = b"P5" if channels == 1 else b"P6"
        payload = codes[0].tobytes() if channels == 1 else codes.transpose(1, 2, 0).tobytes()
        original.write_bytes(header + b"\n7 5\n255\n" + payload)
        loaded = load_image(original)
        copy = tmp_path / f"copy.{magic}"
        save_image(loaded, copy)
        assert copy.read_bytes() == original.read_bytes()
        assert np.array_equal(load_image(copy).data, loaded.data)


class TestManifestType:
    def test_non_empty_required(self):
        with pytest.raises(ValueError):
            Manifest(records=tuple())


def sample_records(n: int) -> list[SampleRecord]:
    return [
        SampleRecord(id=f"r{i}", path=f"p{i}", label=Label.REAL,
                     modality=Modality.IMAGE, subset="s")
        for i in range(n)
    ]


def memory_loader(missing=()):
    """Loader serving a 1x1 image whose value encodes the record number."""

    def loader(path: str) -> ImageBuffer:
        if path in missing:
            raise MissingFileError(f"image not found: {path}")
        return ImageBuffer(np.full((1, 1, 1), int(path[1:]) / 100.0))

    return loader


class TestIterSamples:
    @pytest.mark.parametrize("threads", [1, 3])
    def test_order_and_failures(self, threads):
        records = sample_records(12)

        def fn(rec, img):
            n = int(rec.id[1:])
            time.sleep(0.001 * ((12 - n) % 4))  # finish out of submission order
            if n == 7:
                raise TruncatedDataError("bad payload")
            return rec.id, img.data[0, 0, 0]

        stream = iter_samples(records, fn, threads, memory_loader({"p2", "p9"}))
        out = list(stream)
        assert [rec.id for rec, _ in out] == [rec.id for rec in records]
        failed = [rec.id for rec, res in out if isinstance(res, Exception)]
        assert failed == ["r2", "r7", "r9"]
        assert isinstance(out[2][1], MissingFileError)
        for rec, res in out:
            if not isinstance(res, Exception):
                assert res == (rec.id, int(rec.id[1:]) / 100.0)

    def test_results_held_never_exceed_window(self):
        threads = 2
        window = IN_FLIGHT_PER_THREAD * threads
        lock = threading.Lock()
        live = peak = 0

        def fn(rec, img):
            nonlocal live, peak
            with lock:
                live += 1
                peak = max(peak, live)
            return rec.id

        consumed = []
        for rec, _ in iter_samples(sample_records(40), fn, threads, memory_loader()):
            time.sleep(0.002)  # a slow consumer lets unbounded workers run ahead
            with lock:
                live -= 1
            consumed.append(rec.id)
        assert len(consumed) == 40
        assert 1 <= peak <= window

    def test_unexpected_errors_propagate(self):
        def fn(rec, img):
            raise RuntimeError("bug")

        for threads in (1, 2):
            with pytest.raises(RuntimeError):
                list(iter_samples(sample_records(3), fn, threads, memory_loader()))

    def test_successes_collects_failed_ids(self):
        failed = []
        stream = iter_samples(
            sample_records(4), lambda rec, img: rec.id, 1, memory_loader({"p1"})
        )
        assert list(successes(stream, failed, "to load")) == ["r0", "r2", "r3"]
        assert [rec_id for rec_id, _ in failed] == ["r1"]

    def test_successes_records_error_text(self):
        def fn(rec, img):
            if rec.id == "r2":
                raise TruncatedDataError("bad payload in r2")
            return rec.id

        failed = []
        stream = iter_samples(sample_records(4), fn, 2, memory_loader({"p0"}))
        assert list(successes(stream, failed, "to load")) == ["r1", "r3"]
        assert failed[0][0] == "r0" and "p0" in failed[0][1]
        assert failed[1] == ("r2", "bad payload in r2")

    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_chain_result_is_a_failure(self, threads):
        # a gray JPEG round trip of 1e308 samples overflows to NaN
        chain = ChainSpec((JpegSimStep(75),))

        def loader(path: str) -> ImageBuffer:
            return ImageBuffer(np.full((1, 8, 8), 1e308 if path == "p1" else 0.5))

        def fn(rec, img):
            with np.errstate(over="ignore", invalid="ignore"):
                return apply_chain(img, chain, np.random.default_rng(0))

        failed = []
        stream = iter_samples(sample_records(3), fn, threads, loader)
        assert len(list(successes(stream, failed, "degradation"))) == 2
        assert failed == [("r1", "image data must be finite")]

    def test_successes_raises_when_all_fail(self):
        stream = iter_samples(
            sample_records(2), lambda rec, img: img, 2, memory_loader({"p0", "p1"})
        )
        with pytest.raises(AllSamplesFailedError, match="all 2 samples failed"):
            list(successes(stream, [], "to load"))
