"""Manifest parsing, PPM/PGM IO, the per-sample loop, and shared-type invariants."""

import gc
import json
import re
import threading
import time
import types

import numpy as np
import pytest

from xmodal.codecsim import apply_chain, chain_steps
from xmodal.core import (
    IN_FLIGHT_PER_THREAD,
    MANIFEST_FIELDS,
    LABELS,
    MODALITIES,
    check_fields,
    check_planes,
    iter_samples,
    load_codes,
    load_image,
    parse_json,
    parse_manifest,
    read_json,
    save_image,
    write_manifest,
)
from xmodal.errors import InputError, NumericalError

from conftest import write_manifest_file


VALID = {"id": "a", "path": "a.ppm", "label": "real", "modality": "image", "subset": "s"}


class TestLabelsAndModalities:
    def test_serialized_strings(self):
        # in code order: a value's code is its index, real 0, fake 1, image 0, video 1
        assert LABELS == ("real", "fake")
        assert MODALITIES == ("image", "video")

    def test_round_trip_through_strings(self):
        # a manifest line's label and modality are exactly the shared values
        fields = {field.key: field for field in MANIFEST_FIELDS}
        assert fields["modality"].choices == MODALITIES
        assert fields["label"].choices == LABELS

    def test_unknown_strings(self):
        fields = {field.key: field for field in MANIFEST_FIELDS}
        with pytest.raises(InputError, match="'label': must be one of 'real', 'fake', got 'genuine'"):
            check_fields({"label": "genuine"}, [fields["label"]], "")
        with pytest.raises(InputError, match="'modality': .* got 'audio'"):
            check_fields({"modality": "audio"}, [fields["modality"]], "")


class TestParseManifest:
    def test_single_valid_line(self, tmp_path):
        path = write_manifest_file(tmp_path / "m.jsonl", [VALID])
        (rec,) = parse_manifest(path)
        assert rec == VALID and list(rec) == list(VALID)
        with pytest.raises(TypeError):
            rec["id"] = "b"

    def test_order_preserved(self, tmp_path):
        entries = [dict(VALID, id=f"r{i}") for i in range(20)]
        path = write_manifest_file(tmp_path / "m.jsonl", entries)
        assert [r["id"] for r in parse_manifest(path)] == [f"r{i}" for i in range(20)]

    def test_duplicate_id(self, tmp_path):
        path = write_manifest_file(tmp_path / "m.jsonl", [VALID, dict(VALID)])
        with pytest.raises(InputError, match=r"duplicate sample id 'a' \(line 2\)"):
            parse_manifest(path)

    def test_unknown_label_reports_line(self, tmp_path):
        path = write_manifest_file(
            tmp_path / "m.jsonl", [VALID, dict(VALID, id="b", label="genuine")]
        )
        with pytest.raises(InputError, match="line 2: 'label': must be one of 'real', 'fake', "
                                             "got 'genuine'"):
            parse_manifest(path)

    def test_unknown_modality(self, tmp_path):
        path = write_manifest_file(tmp_path / "m.jsonl", [dict(VALID, modality="audio")])
        with pytest.raises(InputError, match="line 1: 'modality': .* got 'audio'"):
            parse_manifest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="manifest not found: .*nope.jsonl"):
            parse_manifest(tmp_path / "nope.jsonl")

    def test_malformed_json_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(VALID) + "\nnot json\n")
        with pytest.raises(InputError, match="m.jsonl: line 2: invalid JSON"):
            parse_manifest(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_manifest_file(tmp_path / "m.jsonl", [dict(VALID, labl="real")])
        with pytest.raises(InputError, match="line 1: 'labl': unknown key"):
            parse_manifest(path)

    def test_frame_index_bounds(self, tmp_path):
        good = dict(VALID, frame_index=2, frame_count=3)
        path = write_manifest_file(tmp_path / "m.jsonl", [good])
        assert parse_manifest(path)[0]["frame_index"] == 2
        bad = dict(VALID, frame_index=3, frame_count=3)
        path = write_manifest_file(tmp_path / "m2.jsonl", [bad])
        with pytest.raises(InputError, match="'frame_index': must be below frame_count 3, got 3"):
            parse_manifest(path)

    def test_write_then_parse_round_trip(self, tmp_path):
        entries = [
            dict(VALID, id="x", frame_index=0, frame_count=9),
            dict(VALID, id="y", label="fake", modality="video"),
        ]
        path = write_manifest_file(tmp_path / "m.jsonl", entries)
        records = parse_manifest(path)
        out = tmp_path / "copy.jsonl"
        write_manifest(records, out)
        assert parse_manifest(out) == records
        assert out.read_bytes() == path.read_bytes()

    def test_write_checks_the_whole_manifest_first(self, tmp_path):
        out = tmp_path / "w.jsonl"
        with pytest.raises(InputError, match=r"w\.jsonl: duplicate sample id 'a' \(record 1\)"):
            write_manifest([VALID, VALID], out)
        with pytest.raises(InputError, match=r"w\.jsonl: manifest contains no records"):
            write_manifest([], out)
        assert not out.exists()

    def test_keys_in_table_order_and_absent_keys_left_out(self, tmp_path):
        line = {"subset": "s", "frame_count": 4, "modality": "video", "label": "fake",
                "path": "v.ppm", "id": "v"}
        path = write_manifest_file(tmp_path / "m.jsonl", [line])
        (rec,) = parse_manifest(path)
        assert list(rec) == ["id", "path", "label", "modality", "subset", "frame_count"]
        assert rec == line

    @pytest.mark.parametrize("text", ["", "\n", "  \n\t\n\n"],
                             ids=["empty", "newline", "blank-lines"])
    def test_no_records(self, tmp_path, text):
        path = tmp_path / "m.jsonl"
        path.write_text(text)
        with pytest.raises(InputError, match=r"m\.jsonl: manifest contains no records"):
            parse_manifest(path)

    def test_blank_lines_between_records_are_skipped(self, tmp_path):
        second = dict(VALID, id="b")
        path = tmp_path / "m.jsonl"
        path.write_text(f"\n{json.dumps(VALID)}\n\n  \n{json.dumps(second)}\n\n")
        assert parse_manifest(path) == (VALID, second)


class TestReadJsonPausesTheGc:
    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_state(self, request):
        was_on = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_on else gc.disable)()

    @pytest.fixture
    def spy(self, monkeypatch):
        """Records the GC state inside each ``json.loads`` call of ``core``."""
        seen = []

        def loads(text):
            seen.append(gc.isenabled())
            return json.loads(text)

        spy = types.SimpleNamespace(loads=loads, JSONDecodeError=json.JSONDecodeError)
        monkeypatch.setattr("xmodal.core.json", spy)
        return seen

    def test_parses_with_the_gc_off(self, gc_state, spy, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"a": [1, 2]}')
        assert read_json(path) == {"a": [1, 2]}
        assert spy == [False]
        assert gc.isenabled() is gc_state

    def test_parse_json_leaves_the_gc_alone(self, gc_state, spy):
        assert parse_json('{"a": [1, 2]}', "m.jsonl", 3) == {"a": [1, 2]}
        assert spy == [gc_state]

    @pytest.mark.parametrize("text", ["{", "[" * 100_000, "1" * 5000])
    def test_restores_the_gc_after_invalid_json(self, gc_state, tmp_path, text):
        path = tmp_path / "f.json"
        path.write_text(text)
        with pytest.raises(InputError, match=r"f\.json: line 1: invalid JSON"):
            read_json(path)
        assert gc.isenabled() is gc_state

    def test_threads_reading_at_once_restore_the_gc(self, gc_state, monkeypatch, tmp_path):
        lock = threading.Lock()
        live = peak = 0

        def loads(text):
            nonlocal live, peak
            with lock:
                live += 1
                peak = max(peak, live)
            time.sleep(0.002)  # a slow parse lets the other threads arrive
            with lock:
                live -= 1
            return json.loads(text)

        spy = types.SimpleNamespace(loads=loads, JSONDecodeError=json.JSONDecodeError)
        monkeypatch.setattr("xmodal.core.json", spy)
        path = tmp_path / "f.json"
        path.write_text("[1]")
        threads = [threading.Thread(target=read_json, args=(path,)) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert peak == 1
        assert gc.isenabled() is gc_state


class TestCheckPlanes:
    def test_float_planes_are_viewed_read_only_without_a_copy(self):
        data = np.zeros((3, 4, 5))
        planes = check_planes(data)
        assert planes.shape == (3, 4, 5) and planes.dtype == np.float64
        assert np.shares_memory(planes, data) and not planes.flags.writeable
        assert data.flags.writeable  # the caller's array keeps its flag

    @pytest.mark.parametrize("data", [
        np.arange(60, dtype=np.uint8).reshape(3, 4, 5),
        np.arange(60).reshape(3, 4, 5),
        np.zeros((5, 4, 3)).transpose(2, 1, 0),
        [[[0.25, 0.5]]],
    ], ids=["uint8", "int64", "transposed", "list"])
    def test_other_dtypes_and_layouts_are_copied_to_c_contiguous_float64(self, data):
        planes = check_planes(data)
        assert planes.dtype == np.float64 and planes.flags.c_contiguous
        assert np.array_equal(planes, np.asarray(data, dtype=np.float64))
        assert not planes.flags.writeable

    @pytest.mark.parametrize("shape", [(2, 4, 4), (4, 4), (1, 0, 4), (3, 4, 0), (0, 4, 4),
                                       (1, 1, 1, 1)])
    def test_a_bad_shape_is_an_input_error(self, shape):
        with pytest.raises(InputError, match=re.escape(
                f"image planes must have shape (1 or 3, height, width), got {shape}")):
            check_planes(np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_sample_is_a_numerical_error(self, value):
        data = np.zeros((1, 2, 2))
        data[0, 0, 0] = value
        with pytest.raises(NumericalError, match="^image data must be finite$"):
            check_planes(data)

    def test_codes_pass_as_they_are(self):
        codes = np.arange(12, dtype=np.uint8).reshape(2, 2, 3).transpose(2, 0, 1)
        assert check_planes(codes, codes=True) is codes
        with pytest.raises(InputError, match="got \\(2, 2\\)"):
            check_planes(codes[0], codes=True)
        # only uint8 planes are codes
        assert check_planes(codes / 255.0, codes=True).dtype == np.float64


class TestImageIO:
    def test_pgm_endpoint_mapping(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 255]))
        buf = load_image(path)
        assert buf.shape == (1, 1, 2)
        assert buf[0, 0, 0] == 0.0
        assert buf[0, 0, 1] == 1.0

    def test_ppm_direct_scaling(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([128, 128, 128]))
        buf = load_image(path)
        assert np.allclose(buf[:, 0, 0], 128 / 255)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(InputError, match="expected 48 payload bytes, got 10"):
            load_image(path)

    def test_codes_are_the_planar_payload(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6]) + b"past the payload")
        codes = load_codes(str(path))
        assert codes.dtype == np.uint8 and not codes.flags.writeable
        assert codes.tolist() == [[[1, 4]], [[2, 5]], [[3, 6]]]
        assert np.array_equal(load_image(path), codes / 255.0)

    def test_unsupported_magic(self, tmp_path):
        path = tmp_path / "t.pbm"
        path.write_bytes(b"P4\n4 4\n" + bytes(4))
        with pytest.raises(InputError, match="unsupported magic b'P4'"):
            load_image(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(InputError, match="only maxval 255 supported, got 65535"):
            load_image(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="image not found: .*nope.pgm"):
            load_image(tmp_path / "nope.pgm")

    def test_header_comments_accepted(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 1, 2, 3]))
        buf = load_image(path)
        assert buf[0, 1, 1] == 3 / 255

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
        assert np.array_equal(load_image(copy), loaded)


def sample_records(n: int) -> list[dict]:
    return [dict(VALID, id=f"r{i}", path=f"p{i}") for i in range(n)]


def memory_loader(missing=()):
    """Loader serving a 1x1 image whose value encodes the record number."""

    def loader(path: str) -> np.ndarray:
        if path in missing:
            raise InputError(f"image not found: {path}")
        return np.full((1, 1, 1), int(path[1:]) / 100.0)

    return loader


class TestIterSamples:
    @pytest.mark.parametrize("threads", [1, 3])
    def test_order_and_failures(self, threads):
        records = sample_records(12)

        def fn(rec, img):
            n = int(rec["id"][1:])
            time.sleep(0.001 * ((12 - n) % 4))  # finish out of submission order
            if n == 7:
                raise InputError("bad payload")
            return rec["id"], img[0, 0, 0]

        failures = []
        out = list(iter_samples(records, fn, memory_loader({"p2", "p9"}), failures, "to load",
                                threads))
        ok = [rec["id"] for rec in records if rec["id"] not in ("r2", "r7", "r9")]
        assert out == [(rec_id, int(rec_id[1:]) / 100.0) for rec_id in ok]
        assert failures == [{"id": "r2", "error": "image not found: p2"},
                            {"id": "r7", "error": "bad payload"},
                            {"id": "r9", "error": "image not found: p9"}]

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
            return rec["id"]

        consumed = []
        for rec_id in iter_samples(sample_records(40), fn, memory_loader(), [], "to load",
                                   threads):
            time.sleep(0.002)  # a slow consumer lets unbounded workers run ahead
            with lock:
                live -= 1
            consumed.append(rec_id)
        assert len(consumed) == 40
        assert 1 <= peak <= window

    def test_unexpected_errors_propagate(self):
        def fn(rec, img):
            raise RuntimeError("bug")

        for threads in (1, 2):
            with pytest.raises(RuntimeError):
                list(iter_samples(sample_records(3), fn, memory_loader(), [], "to load", threads))

    def test_failures_collect_failed_ids(self):
        failures = []
        stream = iter_samples(sample_records(4), lambda rec, img: rec["id"],
                              memory_loader({"p1"}), failures, "to load")
        assert list(stream) == ["r0", "r2", "r3"]
        assert [failure["id"] for failure in failures] == ["r1"]

    def test_failures_record_error_text(self):
        def fn(rec, img):
            if rec["id"] == "r2":
                raise InputError("bad payload in r2")
            return rec["id"]

        failures = []
        stream = iter_samples(sample_records(4), fn, memory_loader({"p0"}), failures, "to load", 2)
        assert list(stream) == ["r1", "r3"]
        assert failures[0]["id"] == "r0" and "p0" in failures[0]["error"]
        assert failures[1] == {"id": "r2", "error": "bad payload in r2"}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_chain_result_is_a_failure(self, threads):
        # a gray JPEG round trip of 1e308 samples overflows to NaN
        chain = chain_steps({"steps": [{"step": "jpeg", "quality": 75}]})

        def loader(path: str) -> np.ndarray:
            return np.full((1, 8, 8), 1e308 if path == "p1" else 0.5)

        def fn(rec, img):
            with np.errstate(over="ignore", invalid="ignore"):
                return apply_chain(img, chain, np.random.default_rng(0))

        failures = []
        stream = iter_samples(sample_records(3), fn, loader, failures, "degradation", threads)
        assert len(list(stream)) == 2
        assert failures == [{"id": "r1", "error": "image data must be finite"}]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_raises_when_all_fail(self, threads):
        failures = []
        stream = iter_samples(sample_records(2), lambda rec, img: img,
                              memory_loader({"p0", "p1"}), failures, "to load", threads)
        with pytest.raises(InputError, match="^all 2 samples failed to load$"):
            list(stream)
        assert [failure["id"] for failure in failures] == ["r0", "r1"]
