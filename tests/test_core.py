"""Manifest parsing, PPM/PGM IO, the per-sample loop, and shared-type invariants."""

import gc
import json
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
    ImageBuffer,
    check_fields,
    iter_samples,
    load_codes,
    load_image,
    parse_json,
    parse_manifest,
    read_json,
    save_image,
    successes,
    write_manifest,
)
from xmodal.errors import InputError

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
        with pytest.raises(InputError, match="expected 48 payload bytes, got 10"):
            load_image(path)

    def test_codes_are_the_planar_payload(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6]) + b"past the payload")
        codes = load_codes(str(path))
        assert codes.dtype == np.uint8 and not codes.flags.writeable
        assert codes.tolist() == [[[1, 4]], [[2, 5]], [[3, 6]]]
        assert np.array_equal(load_image(path).data, codes / 255.0)

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


def sample_records(n: int) -> list[dict]:
    return [dict(VALID, id=f"r{i}", path=f"p{i}") for i in range(n)]


def memory_loader(missing=()):
    """Loader serving a 1x1 image whose value encodes the record number."""

    def loader(path: str) -> ImageBuffer:
        if path in missing:
            raise InputError(f"image not found: {path}")
        return ImageBuffer(np.full((1, 1, 1), int(path[1:]) / 100.0))

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
            return rec["id"], img.data[0, 0, 0]

        stream = iter_samples(records, fn, threads, memory_loader({"p2", "p9"}))
        out = list(stream)
        assert [rec["id"] for rec, _ in out] == [rec["id"] for rec in records]
        failed = [rec["id"] for rec, res in out if isinstance(res, Exception)]
        assert failed == ["r2", "r7", "r9"]
        assert isinstance(out[2][1], InputError) and str(out[2][1]) == "image not found: p2"
        for rec, res in out:
            if not isinstance(res, Exception):
                assert res == (rec["id"], int(rec["id"][1:]) / 100.0)

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
        for rec, _ in iter_samples(sample_records(40), fn, threads, memory_loader()):
            time.sleep(0.002)  # a slow consumer lets unbounded workers run ahead
            with lock:
                live -= 1
            consumed.append(rec["id"])
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
            sample_records(4), lambda rec, img: rec["id"], 1, memory_loader({"p1"})
        )
        assert list(successes(stream, failed, "to load")) == ["r0", "r2", "r3"]
        assert [rec_id for rec_id, _ in failed] == ["r1"]

    def test_successes_records_error_text(self):
        def fn(rec, img):
            if rec["id"] == "r2":
                raise InputError("bad payload in r2")
            return rec["id"]

        failed = []
        stream = iter_samples(sample_records(4), fn, 2, memory_loader({"p0"}))
        assert list(successes(stream, failed, "to load")) == ["r1", "r3"]
        assert failed[0][0] == "r0" and "p0" in failed[0][1]
        assert failed[1] == ("r2", "bad payload in r2")

    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_chain_result_is_a_failure(self, threads):
        # a gray JPEG round trip of 1e308 samples overflows to NaN
        chain = chain_steps({"steps": [{"step": "jpeg", "quality": 75}]})

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
        with pytest.raises(InputError, match="all 2 samples failed"):
            list(successes(stream, [], "to load"))
