"""End-to-end CLI behavior: outputs, determinism, exit codes."""

import csv
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import xmodal
from xmodal.cli import (
    BINS,
    FLAG_FIELDS,
    MAX_RANGE,
    MAX_THREADS,
    build_parser,
    main,
)
from xmodal.codecsim import (
    MAX_SIDE,
    MAX_SIGMA,
    apply_chain,
    derive_sample_seed,
    load_chain,
)
from xmodal.core import describe, load_image, parse_manifest
from xmodal.forensics import (
    ZERO_EPS,
    dataset_mean_rapsd,
    dct_ac_histogram,
    luminance_histogram,
    rapsd,
    residual_power,
    residual_spectrum,
)
from xmodal.trainer import TRAIN_FIELDS, ToyModel, save_checkpoint, train_config

from conftest import (CANONICAL_CHAIN, EVERY_STEP_CHAIN, textured_image, write_chain_file,
                      write_manifest_file)
from xmodal.core import save_image

# how an evaluate or train error about a model of input width 6 describes a bad 'x'
X6 = "'x': must be a list of 6 finite numbers, got "


def run_cli(*argv):
    return main([str(a) for a in argv])


def dir_snapshot(path: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(path)): p.read_bytes()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


@pytest.fixture
def corpus(tmp_path):
    entries = []
    for i in range(8):
        img = textured_image(seed=200 + i, h=32, w=32)
        p = tmp_path / f"img_{i}.pgm"
        save_image(img, p)
        entries.append(
            {
                "id": f"s{i}",
                "path": str(p),
                "label": "real" if i % 2 == 0 else "fake",
                "modality": "image",
                "subset": "alpha" if i < 4 else "beta",
            }
        )
    manifest = write_manifest_file(tmp_path / "manifest.jsonl", entries)
    return tmp_path, manifest


class TestVersion:
    def test_version_runs(self, capsys):
        assert run_cli("version") == 0
        assert capsys.readouterr().out.strip()


class TestAnalyze:
    @pytest.mark.parametrize("kind", ["dct", "rapsd", "luma", "spectrum"])
    def test_kinds_produce_outputs(self, corpus, tmp_path, kind):
        root, manifest = corpus
        out = tmp_path / f"out_{kind}"
        code = run_cli(
            "analyze", kind, "--manifest", manifest, "--out", out,
            "--size", 32,
        )
        assert code == 0
        assert (out / f"{kind}.csv").is_file()
        summary = json.loads((out / f"{kind}.summary.json").read_text())
        assert summary["n_failed"] == 0
        assert (out / "run.json").is_file()

    def test_limit_respected(self, corpus, tmp_path):
        root, manifest = corpus
        out = tmp_path / "limited"
        assert run_cli("analyze", "dct", "--manifest", manifest, "--out", out,
                       "--limit", 3) == 0
        summary = json.loads((out / "dct.summary.json").read_text())
        assert summary["n_images"] == 3

    @pytest.mark.parametrize("kind", ["rapsd", "spectrum"])
    def test_limit_respected_by_streaming_kinds(self, corpus, tmp_path, kind):
        root, manifest = corpus
        out = tmp_path / "limited"
        assert run_cli("analyze", kind, "--manifest", manifest, "--out", out,
                       "--limit", 2, "--size", 32) == 0
        summary = json.loads((out / f"{kind}.summary.json").read_text())
        assert summary["n_used"] == 2

    @pytest.mark.parametrize("flag,value", [
        ("--limit", 0), ("--limit", -1), ("--threads", 0), ("--threads", -2),
        ("--limit", "x"),
    ])
    def test_non_positive_counts_exit_2(self, corpus, tmp_path, capsys, flag, value):
        root, manifest = corpus
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze", "luma", "--manifest", manifest, "--out",
                    tmp_path / "out", flag, value)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind,flag,value", [
        ("spectrum", "--sigma", "inf"), ("spectrum", "--sigma", 0),
        ("dct", "--range", "nan"), ("dct", "--range", "inf"), ("dct", "--range", -1),
        ("dct", "--bins", 0), ("rapsd", "--bins", 1), ("rapsd", "--bins", 2),
        ("spectrum", "--size", 7),
        # past the upper bounds, and --range at its floor: unchecked, these run
        # out of memory, overflow, fail inside NumPy or pad frames past the budget
        ("dct", "--bins", 10**12), ("rapsd", "--bins", 10**12), ("rapsd", "--bins", 10**23),
        ("dct", "--bins", (1 << 16) + 1), ("rapsd", "--bins", MAX_SIDE + 1),
        ("spectrum", "--sigma", "1e308"), ("spectrum", "--sigma", MAX_SIGMA + 0.5),
        ("spectrum", "--size", MAX_SIDE + 1), ("spectrum", "--size", 100000),
        ("dct", "--range", "1e308"), ("dct", "--range", MAX_RANGE * 1.5),
        ("dct", "--range", "5e-324"), ("dct", "--range", ZERO_EPS),
    ])
    def test_bad_numeric_options_exit_2(self, corpus, tmp_path, capsys, kind, flag, value):
        root, manifest = corpus
        with pytest.raises(SystemExit) as exc, warnings.catch_warnings():
            warnings.simplefilter("error")
            run_cli("analyze", kind, "--manifest", manifest, "--out", tmp_path / "out",
                    flag, value)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: xmodal analyze") and flag in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind,value", [("luma", -3), ("spectrum", 0), ("luma", 32)])
    def test_bins_exits_2_where_it_does_not_apply(self, corpus, tmp_path, capsys, kind,
                                                  value):
        root, manifest = corpus
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze", kind, "--manifest", manifest, "--out", tmp_path / "out",
                    "--bins", value)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: xmodal analyze")
        assert f"argument '--bins': does not apply to {kind}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind,flag,value", [
        ("rapsd", "--bins", 3), ("dct", "--bins", 1), ("spectrum", "--size", 8),
        ("rapsd", "--bins", MAX_SIDE), ("dct", "--bins", 1 << 16),
    ])
    def test_boundary_numeric_options_accepted(self, corpus, tmp_path, kind, flag, value):
        root, manifest = corpus
        out = tmp_path / "out"
        assert run_cli("analyze", kind, "--manifest", manifest, "--out", out,
                       flag, value) == 0
        summary = json.loads((out / f"{kind}.summary.json").read_text())
        assert all(np.isfinite(v) for v in summary.values() if isinstance(v, float))

    def test_constant_image_zero_fraction(self, tmp_path):
        img_path = tmp_path / "c.pgm"
        save_image(textured_image(0, h=16, w=16, noise_sigma=0.0), img_path)
        flat = tmp_path / "flat.pgm"
        from conftest import gray_image

        save_image(gray_image(np.full((16, 16), 0.5)), flat)
        manifest = write_manifest_file(
            tmp_path / "m.jsonl",
            [{"id": "c", "path": str(flat), "label": "real", "modality": "image",
              "subset": "s"}],
        )
        out = tmp_path / "out"
        assert run_cli("analyze", "dct", "--manifest", manifest, "--out", out) == 0
        summary = json.loads((out / "dct.summary.json").read_text())
        assert summary["zero_fraction"] == 1.0

    def test_unreadable_manifest_exits_2(self, tmp_path, capsys):
        code = run_cli("analyze", "dct", "--manifest", tmp_path / "nope.jsonl",
                       "--out", tmp_path / "o")
        assert code == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_rerun_byte_identical(self, corpus, tmp_path):
        root, manifest = corpus
        out = tmp_path / "a"
        assert run_cli("analyze", "rapsd", "--manifest", manifest, "--out", out,
                       "--seed", 7) == 0
        first = dir_snapshot(out)
        assert run_cli("analyze", "rapsd", "--manifest", manifest, "--out", out,
                       "--seed", 7) == 0
        assert dir_snapshot(out) == first


class TestDegrade:
    def chain_file(self, tmp_path, steps=None) -> Path:
        return write_chain_file(tmp_path / "chain.json",
                                *(steps or ({"step": "jpeg", "quality": 100},)))

    def test_identityish_chain_outputs_close(self, corpus, tmp_path):
        root, manifest = corpus
        chain = self.chain_file(tmp_path)
        out = tmp_path / "degraded"
        assert run_cli("degrade", "--manifest", manifest, "--chain", chain,
                       "--out", out, "--seed", 1) == 0
        new_manifest = parse_manifest(out / "manifest.jsonl")
        assert len(new_manifest) == 8
        originals = parse_manifest(manifest)
        for old, new in zip(originals, new_manifest):
            assert old["id"] == new["id"]
            before = load_image(old["path"])
            after = load_image(new["path"])
            assert np.abs(before - after).max() <= 1 / 255 + 1e-12

    def test_rerun_byte_identical(self, corpus, tmp_path):
        root, manifest = corpus
        chain = self.chain_file(
            tmp_path, ({"step": "motion_blur", "length": 3, "angle_deg": 15.0},
                       {"step": "jpeg", "quality": 80})
        )
        out = tmp_path / "degraded"
        assert run_cli("degrade", "--manifest", manifest, "--chain", chain,
                       "--out", out, "--seed", 42) == 0
        first = dir_snapshot(out)
        assert run_cli("degrade", "--manifest", manifest, "--chain", chain,
                       "--out", out, "--seed", 42) == 0
        assert dir_snapshot(out) == first

    def test_threads_do_not_change_outputs(self, corpus, tmp_path):
        root, manifest = corpus
        chain = self.chain_file(tmp_path, ({"step": "motion_blur", "length": 3, "angle_deg": 0.0},))
        serial, threaded = tmp_path / "ser", tmp_path / "thr"
        assert run_cli("degrade", "--manifest", manifest, "--chain", chain,
                       "--out", serial, "--seed", 3) == 0
        assert run_cli("degrade", "--manifest", manifest, "--chain", chain,
                       "--out", threaded, "--seed", 3, "--threads", 4) == 0
        a = {k: v for k, v in dir_snapshot(serial).items() if k.endswith(".pgm")}
        b = {k: v for k, v in dir_snapshot(threaded).items() if k.endswith(".pgm")}
        assert a == b

    def test_threads_do_not_change_outputs_of_any_step(self, tmp_path):
        # colour and gray frames through every step type, which the codecs and the
        # motion blur run over the frame the chain owns
        entries = []
        for i in range(6):
            path = tmp_path / f"f{i}.{'ppm' if i % 2 else 'pgm'}"
            save_image(textured_image(seed=500 + i, h=36, w=52, channels=3 if i % 2 else 1),
                       path)
            entries.append({"id": f"f{i}", "path": str(path), "label": "real",
                            "modality": "image", "subset": "s"})
        manifest = write_manifest_file(tmp_path / "m.jsonl", entries)
        chain = write_chain_file(tmp_path / "chain.json", *EVERY_STEP_CHAIN["steps"])
        frames = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            assert run_cli("degrade", "--manifest", manifest, "--chain", chain,
                           "--out", out, "--seed", 3, "--threads", threads) == 0
            frames.append({k: v for k, v in dir_snapshot(out).items()
                           if k.endswith((".ppm", ".pgm"))})
        assert sorted(Path(k).suffix for k in frames[0]) == [".pgm"] * 3 + [".ppm"] * 3
        assert frames[0] == frames[1]

    @pytest.mark.parametrize("flag", ["--limit", "--threads"])
    def test_non_positive_counts_exit_2(self, corpus, tmp_path, flag):
        root, manifest = corpus
        chain = tmp_path / "chain.json"
        write_chain_file(chain, {"step": "jpeg", "quality": 90})
        with pytest.raises(SystemExit) as exc:
            run_cli("degrade", "--manifest", manifest, "--chain", chain,
                    "--out", tmp_path / "deg", flag, 0)
        assert exc.value.code == 2

    def test_unknown_step_exits_2_naming_step(self, corpus, tmp_path, capsys):
        root, manifest = corpus
        bad = tmp_path / "bad.json"
        bad.write_text('{"steps": [{"step": "h265"}]}')
        code = run_cli("degrade", "--manifest", manifest, "--chain", bad,
                       "--out", tmp_path / "x")
        assert code == 2
        assert "h265" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["degrade", "analyze"])
    @pytest.mark.parametrize("doc, where", [
        ({"steps": 5}, "chain document must be"),
        ({"steps": [{"step": "motion_blur", "length": 3, "angle_deg": "x"}]},
         "step 0 'motion_blur': 'angle_deg'"),
        ({"steps": [{"step": "jpeg", "quality": True}]}, "step 0 'jpeg': 'quality'"),
        ({"steps": [{"step": "jpeg", "quality": 90}, {"step": "resize", "shorter_side": 1.5}]},
         "step 1 'resize': 'shorter_side'"),
        ({"steps": [{"step": "color_jitter", "contrast": [0.9]}]},
         "step 0 'color_jitter': 'contrast'"),
        ({"steps": [{"step": "jpeg", "quality": 90}], "stepz": [], "seed": 3},
         "'stepz': unknown key"),
        ('{"steps": [\n  {"step": "jpeg",}\n]}', "line 2: invalid JSON"),  # text, not a doc
    ])
    def test_mistyped_chain_exits_2_naming_step(self, corpus, tmp_path, capsys, command, doc,
                                                where):
        root, manifest = corpus
        bad = tmp_path / "bad.json"
        bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        kind = ("dct",) if command == "analyze" else ()
        code = run_cli(command, *kind, "--manifest", manifest, "--chain", bad,
                       "--out", tmp_path / "x")
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: {where}")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("step, where", [
        ({"step": "gaussian_blur", "sigma": 1e308},
         "'gaussian_blur': 'sigma': must be a finite number in [0, 682], got 1e+308"),
        ({"step": "gaussian_blur", "sigma": 10**400},
         "'gaussian_blur': 'sigma': must be a finite number in [0, 682], got 1000"),
        ({"step": "resize", "shorter_side": 100000},
         "'resize': 'shorter_side': must be an integer in [1, 4096], got 100000"),
        ({"step": "motion_blur", "length": 100000},
         "'motion_blur': 'length': must be an integer in [1, 4096], got 100000"),
        ({"step": "color_jitter", "brightness": [1e308, 1e308], "contrast": [1e308, 1e308],
          "saturation": [0, 0]},
         "'color_jitter': 'brightness': must be a pair [a, b] of numbers with "
         "0 <= a <= b <= 255, got [1e+308, 1e+308]"),
        ({"step": "color_jitter", "saturation": [1, 256]},
         "'color_jitter': 'saturation': must be a pair [a, b] of numbers with "
         "0 <= a <= b <= 255, got [1, 256]"),
    ], ids=["sigma-1e308", "sigma-400-digits", "shorter-side-100000", "length-100000",
            "jitter-1e308", "saturation-256"])
    def test_absurd_chain_value_exits_2_naming_step(self, corpus, tmp_path, capsys, step,
                                                    where):
        root, manifest = corpus
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"steps": [{"step": "jpeg", "quality": 90}, step]}))
        code = run_cli("degrade", "--manifest", manifest, "--chain", bad,
                       "--out", tmp_path / "x")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: step 1 {where}") and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_sample_seed_derivation_stable(self):
        assert derive_sample_seed(1, "a") == derive_sample_seed(1, "a")
        assert derive_sample_seed(1, "a") != derive_sample_seed(2, "a")
        assert derive_sample_seed(1, "a") != derive_sample_seed(1, "b")


@pytest.fixture
def train_setup(tmp_path):
    config = {
        "data": {
            "synthetic": {
                "train_counts": [60, 60, 30, 30],
                "val_counts": [20, 20, 10, 10],
                "test_counts": [50, 50, 50, 50],
                "seed": 0,
            }
        },
        "train": {"epochs": 12, "batch_size": 16, "lambda": 0.05, "seed": 0,
                  "patience": 30},
    }
    path = tmp_path / "train.json"
    path.write_text(json.dumps(config))
    return path


class TestTrainCommand:
    def test_outputs_and_early_stop_contract(self, train_setup, tmp_path):
        out = tmp_path / "run"
        assert run_cli("train", "--config", train_setup, "--out", out) == 0
        assert (out / "checkpoint.json").is_file()
        history = (out / "history.csv").read_text().strip().splitlines()
        assert history[0] == ("epoch,train_bce,train_cm,train_total,val_total,train_acc,val_acc,"
                              "valid_anchors,dead_rows,grad_norm")
        run_doc = json.loads((out / "run.json").read_text())
        best_epoch = run_doc["config"]["best_epoch"]
        # the config file's keys, lambda included, in run.json and the checkpoint
        keys = {field.key for field in TRAIN_FIELDS}
        assert set(run_doc["config"]["train"]) == keys
        assert set(json.loads((out / "checkpoint.json").read_text())["config"]) == keys
        vals = [float(line.split(",")[4]) for line in history[1:]]
        assert min(vals) == vals[best_epoch]

    def test_lambda_zero_cm_column_zero(self, tmp_path):
        config = {
            "data": {"synthetic": {"train_counts": [40, 40, 20, 20],
                                    "val_counts": [10, 10, 10, 10],
                                    "test_counts": [10, 10, 10, 10], "seed": 1}},
            "train": {"epochs": 5, "batch_size": 16, "lambda": 0.0, "seed": 1},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert run_cli("train", "--config", path, "--out", out) == 0
        history = (out / "history.csv").read_text().strip().splitlines()[1:]
        assert all(float(line.split(",")[2]) == 0.0 for line in history)

    def test_rerun_byte_identical(self, train_setup, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run_cli("train", "--config", train_setup, "--out", out) == 0
        assert (out1 / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"train": {"epochs": -3}}')
        assert run_cli("train", "--config", path, "--out", tmp_path / "o") == 2
        assert run_cli("train", "--config", tmp_path / "missing.json",
                       "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("key, value", [
        ("tau", -1.0), ("tau", 0.0), ("hidden_dim", 0), ("feature_dim", 0),
    ])
    def test_bad_model_setting_exits_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"data": {"synthetic": {"seed": 1}},
                                    "train": {"epochs": 2, key: value}}))
        assert run_cli("train", "--config", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "key", ["beta1", "beta2", "eps", "video_fraction", "guarantee_both"]
    )
    def test_removed_setting_exits_2_naming_it(self, tmp_path, capsys, key):
        # AdamW's betas and epsilon and the batch mix are constants, not settings
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"epochs": 2, key: 0.5}}))
        assert run_cli("train", "--config", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"'train.{key}': unknown key" in err and "Traceback" not in err

    def test_negative_seed_option_exits_2(self, train_setup, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--config", train_setup, "--out", tmp_path / "o", "--seed", -1)
        assert exc.value.code == 2
        assert "argument '--seed': must be an integer >= 0, got -1" in capsys.readouterr().err

    def test_seed_option_replaces_the_files_seed(self, train_setup, tmp_path):
        doc = json.loads(train_setup.read_text())
        doc["train"]["seed"] = 5
        seeded = _write_json(tmp_path / "seed5.json", doc)
        flag, file = tmp_path / "flag", tmp_path / "file"
        assert run_cli("train", "--config", train_setup, "--out", flag, "--seed", 5) == 0
        assert run_cli("train", "--config", seeded, "--out", file) == 0
        assert json.loads((flag / "run.json").read_text())["config"]["train"]["seed"] == 5
        for name in ("checkpoint.json", "history.csv"):
            assert (flag / name).read_bytes() == (file / name).read_bytes()

    def test_diverging_run_exits_3_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "hot.json"
        path.write_text(json.dumps({"data": {"synthetic": {"seed": 3}},
                                    "train": {"epochs": 5, "lr": 1e300, "seed": 3}}))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run_cli("train", "--config", path, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err
        assert "parameter w1" in err and "at epoch 0" in err
        assert not (tmp_path / "o").exists()


def feature_file(tmp_path, records):
    path = tmp_path / "features.json"
    path.write_text(json.dumps({"records": records}))
    return path


class TestEvaluateCommand:
    def make_checkpoint(self, train_setup, tmp_path) -> Path:
        out = tmp_path / "trained"
        assert run_cli("train", "--config", train_setup, "--out", out) == 0
        return out / "checkpoint.json"

    def test_feature_evaluation_report(self, train_setup, tmp_path):
        checkpoint = self.make_checkpoint(train_setup, tmp_path)
        rng = np.random.default_rng(0)
        records = []
        for i in range(40):
            label = "fake" if i % 2 else "real"
            records.append(
                {
                    "id": f"e{i}",
                    "x": rng.normal(size=6).tolist(),
                    "label": label,
                    "modality": "image" if i % 4 < 2 else "video",
                    "subset": "a" if i < 20 else "b",
                }
            )
        features = feature_file(tmp_path, records)
        out = tmp_path / "eval"
        assert run_cli("evaluate", "--checkpoint", checkpoint, "--features",
                       features, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert {r["subset"] for r in report["subsets"]} == {"a", "b"}
        assert (out / "report.csv").is_file()

    def test_video_grouping_and_frames(self, train_setup, tmp_path):
        checkpoint = self.make_checkpoint(train_setup, tmp_path)
        rng = np.random.default_rng(1)
        records = []
        for frame in range(5):
            records.append(
                {
                    "id": f"v0#{frame}",
                    "video_id": "v0",
                    "frame_index": frame,
                    "x": rng.normal(size=6).tolist(),
                    "label": "fake",
                    "modality": "video",
                    "subset": "vids",
                }
            )
        features = feature_file(tmp_path, records)
        out = tmp_path / "eval_video"
        # one video of one label: its subset's balanced accuracy is undefined
        with pytest.warns(UserWarning, match="1 subset.* undefined balanced_acc"):
            assert run_cli("evaluate", "--checkpoint", checkpoint, "--features",
                           features, "--out", out, "--frames", 3) == 0
        report = json.loads((out / "report.json").read_text())
        row = report["subsets"][0]
        assert row["n_fake"] == 1  # five frames, one video

    def test_aggregation_flag(self, train_setup, tmp_path):
        checkpoint = self.make_checkpoint(train_setup, tmp_path)
        rng = np.random.default_rng(2)
        records = [
            {"id": f"r{i}", "x": rng.normal(size=6).tolist(),
             "label": "fake" if i % 2 else "real",
             "modality": "image", "subset": "only"}
            for i in range(10)
        ]
        features = feature_file(tmp_path, records)
        out = tmp_path / "agg"
        assert run_cli("evaluate", "--checkpoint", checkpoint, "--features",
                       features, "--out", out, "--aggregation", "overall") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["headline"] == "overall"
        headline_acc = json.loads((out / "run.json").read_text())["config"]["headline_acc"]
        assert headline_acc == report["overall_pooled"]["acc"]

    def test_features_required_and_manifest_gone(self, tmp_path):
        for extra in ((), ("--manifest", tmp_path / "m.jsonl")):
            with pytest.raises(SystemExit) as exc:
                run_cli("evaluate", "--checkpoint", tmp_path / "c.json",
                        "--out", tmp_path / "eval", *extra)
            assert exc.value.code == 2

    def test_non_positive_limit_exits_2(self, tmp_path):
        for flag, value in (("--limit", 0), ("--frames", 0), ("--frames", -1)):
            with pytest.raises(SystemExit) as exc:
                run_cli("evaluate", "--checkpoint", tmp_path / "c.json", "--features",
                        tmp_path / "f.json", "--out", tmp_path / "eval", flag, value)
            assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exits_2(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--checkpoint", tmp_path / "c.json", "--features",
                    tmp_path / "f.json", "--out", tmp_path / "eval", "--threshold", value)
        assert exc.value.code == 2
        assert "--threshold" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_unloadable_checkpoint_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run_cli("evaluate", "--checkpoint", bad,
                       "--features", tmp_path / "f.json",
                       "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize(
        "x, message",
        [
            (None, "'x': missing key"),
            ([0.5] * 7, f"{X6}[0.5, 0.5, 0.5, 0.5, 0.5, 0.5, ...]"),
            ([[0.5, 0.5], 0.5, 0.5, 0.5, 0.5, 0.5], f"{X6}[[0.5, 0.5], 0.5, 0.5, 0.5, 0.5, 0.5]"),
            ([0.5, float("nan"), 0.5, 0.5, 0.5, 0.5], f"{X6}[0.5, nan, 0.5, 0.5, 0.5, 0.5]"),
            ([0.5, True, 0.5, 0.5, 0.5, 0.5], f"{X6}[0.5, True, 0.5, 0.5, 0.5, 0.5]"),
            ([0.5, "0.5", 0.5, 0.5, 0.5, 0.5], f"{X6}[0.5, '0.5', 0.5, 0.5, 0.5, 0.5]"),
            ([0.5, 10**400, 0.5, 0.5, 0.5, 0.5],
             f"{X6}[0.5, 100000000000000000...0000000000000000000, 0.5, 0.5, 0.5, 0.5]"),
            ([], f"{X6}[]"),
            # np.array would round it to the largest float
            ([0.5, int(sys.float_info.max) + 1, 0.5, 0.5, 0.5, 0.5],
             f"{X6}[0.5, 179769313486231570...0404026184124858369, 0.5, 0.5, 0.5, 0.5]"),
        ],
        ids=["missing", "ragged", "nested", "nan", "bool", "numeric-string", "beyond-float64",
             "empty", "one-past-float64-max"],
    )
    def test_bad_feature_record_exits_2_naming_it(
        self, train_setup, tmp_path, capsys, monkeypatch, x, message
    ):
        checkpoint = self.make_checkpoint(train_setup, tmp_path)
        # small blocks put the bad record in the second block
        monkeypatch.setattr("xmodal.cli.SCORE_BLOCK", 4, raising=False)
        rng = np.random.default_rng(4)
        records = [
            {"id": f"r{i}", "x": rng.normal(size=6).tolist(),
             "label": "fake" if i % 2 else "real", "modality": "image", "subset": "s"}
            for i in range(10)
        ]
        records[6].pop("x")
        if x is not None:
            records[6]["x"] = x
        features = feature_file(tmp_path, records)
        capsys.readouterr()
        assert run_cli("evaluate", "--checkpoint", checkpoint, "--features",
                       features, "--out", tmp_path / "eval") == 2
        err = capsys.readouterr().err
        assert f"feature record 6 ('r6') {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "eval").exists()

    def test_overflowing_logit_exits_3_naming_the_record(
        self, train_setup, tmp_path, capsys, monkeypatch
    ):
        # a finite 'x' passes every record check, but overflows this model to a -inf logit
        checkpoint = self.make_checkpoint(train_setup, tmp_path)
        monkeypatch.setattr("xmodal.cli.SCORE_BLOCK", 4, raising=False)
        rng = np.random.default_rng(4)
        records = [
            {"id": f"r{i}", "x": rng.normal(size=6).tolist(),
             "label": "fake" if i % 2 else "real", "modality": "image", "subset": "s"}
            for i in range(10)
        ]
        records[6]["x"] = [1e308] * 6
        features = feature_file(tmp_path, records)
        capsys.readouterr()
        assert run_cli("evaluate", "--checkpoint", checkpoint, "--features",
                       features, "--out", tmp_path / "eval") == 3
        err = capsys.readouterr().err
        assert err == f"error: {features}: feature record 6 ('r6') has a non-finite logit (-inf)\n"
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("largest", [int(sys.float_info.max), -int(sys.float_info.max),
                                         sys.float_info.max], ids=["int", "-int", "float"])
    def test_largest_float_is_scored(self, tmp_path, largest):
        # a model blind to x[1] scores the record as it scores any other x[1]
        def blind_to_x1(doc):
            doc["params"]["w1"]["data"][16:32] = [0.0] * 16

        reports = []
        for name, x1 in (("largest", largest), ("zero", 0.0)):
            (tmp_path / name).mkdir()
            doc = _feature_doc(x=[0.5, x1, 0.5, 0.5, 0.5, 0.5])
            assert run_cli(*_evaluate_argv(tmp_path / name, doc, blind_to_x1)) == 0
            reports.append((tmp_path / name / "eval" / "report.json").read_text())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("frame_index", [[1], 1.5], ids=["list", "float"])
    def test_bad_frame_index_exits_2_naming_it(self, tmp_path, capsys, frame_index):
        argv = _evaluate_argv(tmp_path, _feature_doc(video_id="v", frame_index=frame_index))
        capsys.readouterr()
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert ("f.json: feature record 1 ('r1') 'frame_index': must be an integer in "
                f"[0, 9223372036854775807] or null, got {frame_index!r}") in err
        assert "Traceback" not in err

    def test_null_frame_index_scores_as_frame_0(self, tmp_path):
        reports = []
        for name, frame_index in (("null", None), ("zero", 0)):
            doc = _feature_doc(video_id="v")
            doc["records"][1]["frame_index"] = frame_index
            (tmp_path / name).mkdir()
            argv = _evaluate_argv(tmp_path / name, doc)
            assert run_cli(*argv) == 0
            reports.append((tmp_path / name / "eval" / "report.json").read_text())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("label", ["fake", "real"], ids=["other-label", "same-label"])
    def test_single_images_are_keyed_by_position(self, tmp_path, label):
        # a video id spelling the name single images were once keyed by
        argv = _evaluate_argv(tmp_path, _feature_doc(video_id="__single_0", label=label))
        assert run_cli(*argv) == 0
        pooled = json.loads((tmp_path / "eval" / "report.json").read_text())["overall_pooled"]
        assert pooled["n_real"] + pooled["n_fake"] == 4

    def test_video_tags_are_checked_before_scoring(self, tmp_path, capsys, monkeypatch):
        def no_scoring(*args, **kwargs):
            raise AssertionError("scored a file with a bad video")

        monkeypatch.setattr("xmodal.trainer.forward", no_scoring)
        doc = _video_doc({"frame_index": 0}, {"frame_index": 1, "subset": "t"})
        argv = _evaluate_argv(tmp_path, doc)
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert ("video 'v' has inconsistent label or subset tags: feature record 1 ('r1') "
                "disagrees with feature record 0 ('r0')") in capsys.readouterr().err

    def test_wrong_feature_length_everywhere_exits_2(self, train_setup, tmp_path, capsys):
        checkpoint = self.make_checkpoint(train_setup, tmp_path)
        records = [{"id": f"r{i}", "x": [0.5] * 5, "label": "real", "modality": "image",
                    "subset": "s"} for i in range(3)]
        features = feature_file(tmp_path, records)
        assert run_cli("evaluate", "--checkpoint", checkpoint, "--features",
                       features, "--out", tmp_path / "eval") == 2
        assert (f"feature record 0 ('r0') {X6}[0.5, 0.5, 0.5, 0.5, 0.5]"
                in capsys.readouterr().err)
        assert not (tmp_path / "eval").exists()

    def test_rerun_byte_identical(self, train_setup, tmp_path):
        checkpoint = self.make_checkpoint(train_setup, tmp_path)
        rng = np.random.default_rng(3)
        records = [
            {"id": f"r{i}", "x": rng.normal(size=6).tolist(),
             "label": "fake" if i % 2 else "real",
             "modality": "image", "subset": "s"}
            for i in range(12)
        ]
        features = feature_file(tmp_path, records)
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        for out in (out1, out2):
            assert run_cli("evaluate", "--checkpoint", checkpoint, "--features",
                           features, "--out", out) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


# SHA-256 of the outputs of test_learning_outputs_keep_their_bytes, recorded
# before training results and reports became plain data
LEARNING_OUTPUT_DIGESTS = {
    "checkpoint.json": "42c1c8c364e66d62e2d933301e73b5a6fb0cba8e9af09e0b1d4467d12a75c6c4",
    "history.csv": "6724d3ef1264088820a27192b11d1445339f7c501c66b0335f385f3178118877",
    "report.csv": "ac36dd4dfd3e5ed053a145dc0af0b4d1fe3e2c7435c0d6534a6827c7f3661ed0",
    "report.json": "4324cfa73ce93cf3cac6df3c04a1299ebba32b3bb5ee6dd41d5b51fe22e4bd71",
}


def test_learning_outputs_keep_their_bytes(tmp_path):
    """A short synthetic ``train`` and an ``evaluate --frames 4`` of its model,
    on videos and images in two subsets, write exactly the pinned bytes."""
    config = {"data": {"synthetic": {"train_counts": [40, 40, 16, 4],
                                     "val_counts": [12, 12, 6, 2],
                                     "test_counts": [1, 1, 1, 1], "seed": 3}},
              "train": {"epochs": 4, "batch_size": 16, "seed": 3}}
    rng = np.random.default_rng(5)
    records = [{"id": f"v{v}#{frame}", "video_id": f"v{v}", "frame_index": 4 - frame,
                "x": rng.normal(size=6).tolist(), "label": "fake" if v % 2 else "real",
                "modality": "video", "subset": "videos"}
               for v in range(6) for frame in range(5)]
    records += [{"id": f"i{i}", "x": rng.normal(size=6).tolist(),
                 "label": "fake" if i % 2 else "real", "subset": "images"}
                for i in range(12)]
    out = tmp_path / "out"
    assert run_cli(*_train_argv(tmp_path, config)) == 0
    features = _write_json(tmp_path / "f.json", {"records": records})
    assert run_cli("evaluate", "--checkpoint", out / "checkpoint.json", "--features", features,
                   "--out", out, "--frames", 4) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in LEARNING_OUTPUT_DIGESTS}
    assert digests == LEARNING_OUTPUT_DIGESTS


# SHA-256 of the outputs of test_pixel_outputs_keep_their_bytes, recorded before
# the chain kernels' scratch shrank to one band
PIXEL_OUTPUT_DIGESTS = {
    "degrade/canonical/000000_f0.pgm":
        "38ec7f37dd67847ef1747a562fa71bb3004257d3838b97478ed20579b546c986",
    "degrade/canonical/000001_f1.ppm":
        "5279eba4b9ac7481ab8e319e210726ce425e5734dca717bbc3cedeed7b73903a",
    "degrade/canonical/000002_f2.pgm":
        "203bd3e13931d260b1227c8795bcc28e9d1c6a979fadf01a1f151eb5baedf3cc",
    "degrade/canonical/000003_f3.ppm":
        "be6b577bf22aa28160a542d6792144241d6e6fe69b1703ecdf3ba995452ced6c",
    "degrade/canonical/degrade.summary.json":
        "857676fb010d12955b23a2cef8c45f0ceea2bddcb6c98e986fe00c5ab2b9470f",
    "degrade/every_step/000000_f0.pgm":
        "b3bb11e230fd5df7ae8c64a73ffd11c9c5b46574ead27687f54812877ef54468",
    "degrade/every_step/000001_f1.ppm":
        "7965e5c1d3b4b84f16d999b53de5622eadfd1bcdf8a1d2e31f0580dbae1d724d",
    "degrade/every_step/000002_f2.pgm":
        "0ca58317cc0beea558487a3c06657174c8d26afc27f09b7442b2df34f4f09a7f",
    "degrade/every_step/000003_f3.ppm":
        "afb80cd7a940b9f8056397475ef3e215019387d62656d2cf4045c27722d2dc2b",
    "degrade/every_step/degrade.summary.json":
        "857676fb010d12955b23a2cef8c45f0ceea2bddcb6c98e986fe00c5ab2b9470f",
    "analyze/dct/dct.csv": "d79c3b4083f87a5e52f1ef86df68cc908b0c1984f6eaaf46c62b6567931b293b",
    "analyze/dct/dct.summary.json":
        "650143ae6f1e8c93919e14a72312d840ed74b6e3fe282ddd9611f4b1c5c45f6a",
    "analyze/rapsd/rapsd.csv": "fbb0bb4d4efd579028a3d657cff60f04db49a842db85af11dcac7640c0dea626",
    "analyze/rapsd/rapsd.summary.json":
        "5077beefdd00040f8db90deb41f9b3072088a92ac41bdb38b8567a4121ef0f73",
    "analyze/luma/luma.csv": "807061a361b97a0a2cc100b733247a992e77a439aac8f2fe959ec43e524a7a23",
    "analyze/luma/luma.summary.json":
        "8416b8ee156eed97a745ad88d0e0487000b6eb336b15f69aba1e72e211ca9a16",
    "analyze/spectrum/spectrum.csv":
        "af7922f0fe0029aeffb14e2fe292a0a93e448870b45699fa13f0d7d146a4e862",
    "analyze/spectrum/spectrum.summary.json":
        "985ca7556850c3aca5325d6a6e64185d591cc17edab6d3e173614c960b24cb54",
    "analyze/dct_chain/dct.csv": "e3cd075a23c48c98cadab91e35c8f818ca69273fe4a713f40c1563ee912484b7",
    "analyze/dct_chain/dct.summary.json":
        "365f6e388f4e65750831cda151fc7fb2695ceaff9a3b85861a17151c9bbba542",
}


def _pixel_outputs(tmp_path) -> dict[str, str]:
    """The SHA-256 of every frame ``degrade`` writes with the canonical and the
    every-step chain at 1 and 2 threads, and of every ``analyze`` result file, on
    gray and colour frames larger than one band of each kernel."""
    entries = []
    for i, (h, w) in enumerate([(150, 260), (150, 260), (270, 200), (270, 200)]):
        path = tmp_path / f"f{i}.{'ppm' if i % 2 else 'pgm'}"
        save_image(textured_image(seed=700 + i, h=h, w=w, channels=3 if i % 2 else 1), path)
        entries.append({"id": f"f{i}", "path": str(path), "label": "real",
                        "modality": "image", "subset": "s"})
    manifest = write_manifest_file(tmp_path / "m.jsonl", entries)
    chains = {name: write_chain_file(tmp_path / f"{name}.json", *doc["steps"])
              for name, doc in (("canonical", CANONICAL_CHAIN), ("every_step", EVERY_STEP_CHAIN))}
    runs = {f"degrade/{name}/t{threads}": ["degrade", "--chain", chain, "--threads", threads]
            for name, chain in chains.items() for threads in (1, 2)}
    runs.update({f"analyze/{kind}": ["analyze", kind] for kind in ("dct", "rapsd", "luma",
                                                                    "spectrum")})
    runs["analyze/dct_chain"] = ["analyze", "dct", "--chain", chains["every_step"]]
    digests = {}
    for name, argv in runs.items():
        out = tmp_path / name
        assert run_cli(*argv, "--manifest", manifest, "--out", out, "--seed", 3) == 0
        for file, blob in dir_snapshot(out).items():
            # the manifest and run.json hold paths; run.json also times the run
            if not file.endswith(("manifest.jsonl", "run.json")):
                digests[f"{name}/{file}"] = hashlib.sha256(blob).hexdigest()
    return digests


def test_pixel_outputs_keep_their_bytes(tmp_path):
    """Every pixel output, at 1 and at 2 threads, is exactly the pinned bytes."""
    digests = _pixel_outputs(tmp_path)
    for threads in (1, 2):
        assert {k.replace(f"/t{threads}/", "/"): v for k, v in digests.items()
                if f"/t{3 - threads}/" not in k} == PIXEL_OUTPUT_DIGESTS


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def _feature_doc(**record_1):
    """Four valid 6-d feature records; ``record_1`` edits the second (None drops a key)."""
    records = [{"id": f"r{i}", "x": [0.1 * i] * 6, "label": "fake" if i % 2 else "real",
                "modality": "image", "subset": "s"} for i in range(4)]
    for key, value in record_1.items():
        if value is None:
            records[1].pop(key)
        else:
            records[1][key] = value
    return {"records": records}


def _video_doc(*frames):
    """One real video 'v' whose i-th record takes the edits ``frames[i]``."""
    records = [{"id": f"r{i}", "x": [0.1 * i] * 6, "label": "real", "modality": "video",
                "subset": "s", "video_id": "v", **edits} for i, edits in enumerate(frames)]
    return {"records": records}


def _train_argv(tmp_path, config):
    return ["train", "--config", _write_json(tmp_path / "cfg.json", config),
            "--out", tmp_path / "out"]


def _synthetic_argv(tmp_path, **synthetic):
    return _train_argv(tmp_path, {"data": {"synthetic": synthetic}})


def _bytes_file(path, blob):
    path.write_bytes(blob)
    return path


def _train_on_features_argv(tmp_path, feature_doc):
    features = str(_write_json(tmp_path / "f.json", feature_doc))
    return _train_argv(tmp_path, {"data": {"train_features": features,
                                           "val_features": features},
                                  "train": {"epochs": 1}})


def _evaluate_argv(tmp_path, feature_doc=None, edit_checkpoint=None):
    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(ToyModel.init(6, 16, 8, np.random.default_rng(0)), train_config({}),
                    checkpoint)
    if edit_checkpoint is not None:
        doc = json.loads(checkpoint.read_text())
        edit_checkpoint(doc)
        _write_json(checkpoint, doc)
    features = _write_json(tmp_path / "f.json", feature_doc or _feature_doc())
    return ["evaluate", "--checkpoint", checkpoint, "--features", features,
            "--out", tmp_path / "eval"]


# case -> (argv builder, text the error line must contain)
MALFORMED_INPUTS = {
    "train-unknown-key": (lambda p: _train_argv(p, {"train": {"epochz": 3}}), "epochz"),
    "synthetic-unknown-key": (
        lambda p: _train_argv(p, {"data": {"synthetic": {"sead": 1}}}), "sead"),
    "data-names-no-source": (
        lambda p: _train_argv(p, {"data": {"features": "f.json"}}),
        "cfg.json: 'data.features': unknown key"),
    "data-names-one-feature-file": (
        lambda p: _train_argv(p, {"data": {"train_features": "f.json"}}),
        "cfg.json: 'data' must name 'synthetic', or 'train_features' and 'val_features'"),
    "config-is-a-list": (lambda p: _train_argv(p, [1, 2]), "must be a JSON object"),
    "train-record-without-x": (
        lambda p: _train_on_features_argv(p, _feature_doc(x=None)),
        "feature record 1 ('r1') 'x': missing key"),
    "train-x-bool": (
        lambda p: _train_on_features_argv(p, _feature_doc(x=[True] * 6)),
        f"f.json: feature record 1 ('r1') {X6}[True, True, True, True, True, True]"),
    "train-x-numeric-string": (
        lambda p: _train_on_features_argv(p, _feature_doc(x=["0.5"] * 6)),
        f"f.json: feature record 1 ('r1') {X6}['0.5', '0.5', '0.5', '0.5', '0.5', '0.5']"),
    "train-x-empty-everywhere": (
        lambda p: _train_on_features_argv(
            p, {"records": [dict(rec, x=[]) for rec in _feature_doc()["records"]]}),
        "f.json: feature record 0 ('r0') 'x': must be a list of 1 finite numbers, got []"),
    "train-x-past-float64-max": (
        lambda p: _train_on_features_argv(p, _feature_doc(x=[int(sys.float_info.max) + 1] * 6)),
        f"f.json: feature record 1 ('r1') {X6}[179769313486231570...0404026184124858369, "),
    "x-bool": (
        lambda p: _evaluate_argv(p, feature_doc=_feature_doc(x=[0.5] * 5 + [False])),
        f"f.json: feature record 1 ('r1') {X6}[0.5, 0.5, 0.5, 0.5, 0.5, False]"),
    "x-numeric-string": (
        lambda p: _evaluate_argv(p, feature_doc=_feature_doc(x=[0.5] * 5 + ["1e3"])),
        f"f.json: feature record 1 ('r1') {X6}[0.5, 0.5, 0.5, 0.5, 0.5, '1e3']"),
    "train-record-without-modality": (
        lambda p: _train_on_features_argv(p, _feature_doc(modality=None)),
        "f.json: feature record 1 ('r1') 'modality': missing key"),
    "checkpoint-zero-width": (
        lambda p: _evaluate_argv(p, edit_checkpoint=lambda d: d["params"].update(
            w1={"shape": [0, 16], "data": []})),
        "checkpoint.json: params.w1: 'shape': must be a list of any number of integers in "
        "[1, 2147483647], got [0, 16]"),
    "checkpoint-missing-parameter": (
        lambda p: _evaluate_argv(p, edit_checkpoint=lambda d: d["params"].pop("wp")),
        "checkpoint.json: 'params.wp': missing key"),
    "checkpoint-extra-config-key": (
        lambda p: _evaluate_argv(p, edit_checkpoint=lambda d: d["config"].update(bogus=1)),
        "bogus"),
    "records-a-number": (
        lambda p: _evaluate_argv(p, feature_doc={"records": 5}), "feature file must be"),
    "train-records-a-number": (
        lambda p: _train_on_features_argv(p, {"records": 5}), "feature file must be"),
    "records-not-a-list": (
        lambda p: _evaluate_argv(p, feature_doc={"records": {"r0": [0.5] * 6}}),
        "feature file must be"),
    "subset-not-a-string": (
        lambda p: _evaluate_argv(p, feature_doc=_feature_doc(subset=3)),
        "feature record 1 ('r1') 'subset'"),
    "train-value-of-wrong-type": (
        lambda p: _train_argv(p, {"train": {"epochs": "5"}}),
        "cfg.json: 'train.epochs': must be an integer >= 1, got '5'"),
    "checkpoint-config-value-out-of-range": (
        lambda p: _evaluate_argv(p, edit_checkpoint=lambda d: d["config"].update(lr=-1)),
        "checkpoint.json: 'config.lr': must be a finite number > 0, got -1"),
    "checkpoint-without-config": (
        lambda p: _evaluate_argv(p, edit_checkpoint=lambda d: d.pop("config")),
        "checkpoint.json: 'config' must be a JSON object, got None"),
    "checkpoint-version-1": (
        lambda p: _evaluate_argv(p, edit_checkpoint=lambda d: d.update(version=1)),
        "checkpoint.json: unsupported version 1"),
    "checkpoint-version-2": (
        lambda p: _evaluate_argv(p, edit_checkpoint=lambda d: d.update(version=2)),
        "checkpoint.json: unsupported version 2, this build reads version 3"),
    "video-frames-disagree-on-label": (
        lambda p: _evaluate_argv(p, feature_doc={"records": [
            {**rec, "video_id": "v"} for rec in _feature_doc()["records"]]}),
        "f.json: video 'v' has inconsistent label or subset tags"),
    "video-id-zero": (
        lambda p: _evaluate_argv(p, feature_doc=_feature_doc(video_id=0)),
        "f.json: feature record 1 ('r1') 'video_id': must be a non-empty string or null, "
        "got 0"),
    "video-id-number-beside-its-string": (
        lambda p: _evaluate_argv(p, feature_doc=_video_doc(
            {"video_id": "5"}, {"video_id": 5, "frame_index": 1})),
        "feature record 1 ('r1') 'video_id': must be a non-empty string or null, got 5"),
    "video-id-list": (
        lambda p: _evaluate_argv(p, feature_doc=_feature_doc(video_id=[1])),
        "feature record 1 ('r1') 'video_id': must be a non-empty string or null, got [1]"),
    "video-id-empty": (
        lambda p: _evaluate_argv(p, feature_doc=_feature_doc(video_id="")),
        "feature record 1 ('r1') 'video_id': must be a non-empty string or null, got ''"),
    "video-frames-repeat-an-index": (
        lambda p: _evaluate_argv(p, feature_doc=_video_doc(
            {"frame_index": 0}, {"frame_index": 2}, {"frame_index": 2})),
        "f.json: video 'v' has two frames with frame_index 2: feature record 1 ('r1') "
        "and feature record 2 ('r2')"),
    "video-frames-null-and-0": (
        lambda p: _evaluate_argv(p, feature_doc=_video_doc(
            {"frame_index": 1}, {"frame_index": None}, {"frame_index": 0})),
        "video 'v' has two frames with frame_index 0"),
    "frame-index-beyond-int64": (
        lambda p: _evaluate_argv(p, feature_doc=_feature_doc(video_id="v",
                                                             frame_index=2**63)),
        "feature record 1 ('r1') 'frame_index': must be an integer in [0, 9223372036854775807] "
        "or null, got 9223372036854775808"),
    "train-unknown-variant": (
        lambda p: _train_argv(p, {"train": {"variant": "bogus"}}),
        "cfg.json: 'train.variant': must be one of 'cross_modal', 'vanilla', got 'bogus'"),
    "train-negative-lr": (
        lambda p: _train_argv(p, {"train": {"lr": -1}}),
        "cfg.json: 'train.lr': must be a finite number > 0, got -1"),
    "train-infinite-lr": (
        lambda p: _train_argv(p, {"train": {"lr": float("inf")}}),
        "cfg.json: 'train.lr': must be a finite number > 0, got inf"),
    "train-negative-weight-decay": (
        lambda p: _train_argv(p, {"train": {"weight_decay": -5}}),
        "cfg.json: 'train.weight_decay': must be a finite number >= 0, got -5"),
    "train-batch-size-1-without-contrastive-term": (
        lambda p: _train_argv(p, {"train": {"lambda": 0, "batch_size": 1}}),
        "cfg.json: 'train.batch_size': must be an integer >= 2, got 1"),
    "train-absurd-hidden-dim": (
        lambda p: _train_argv(p, {"train": {"hidden_dim": 10**12}}),
        "cfg.json: 'train.hidden_dim': must be an integer in [1, 1024], got 1000000000000"),
    "train-feature-dim-over-budget": (
        lambda p: _train_argv(p, {"train": {"feature_dim": 1025}}),
        "cfg.json: 'train.feature_dim': must be an integer in [1, 1024], got 1025"),
    "checkpoint-config-absurd-hidden-dim": (
        lambda p: _evaluate_argv(
            p, edit_checkpoint=lambda d: d["config"].update(hidden_dim=10**12)),
        "checkpoint.json: 'config.hidden_dim': must be an integer in [1, 1024]"),
    "train-lam-is-not-a-key": (
        lambda p: _train_argv(p, {"train": {"lam": 0}}),
        "cfg.json: 'train.lam': unknown key"),
    "train-negative-seed": (
        lambda p: _train_argv(p, {"train": {"seed": -1}}),
        "cfg.json: 'train.seed': must be an integer >= 0, got -1"),
    "synthetic-count-bool": (
        lambda p: _synthetic_argv(p, train_counts=[True, 1, 1, 1]),
        "cfg.json: 'data.synthetic.train_counts': must be a list of 4 integers in [0, 4096], "
        "got [True, 1, 1, 1]"),
    "synthetic-count-float": (
        lambda p: _synthetic_argv(p, train_counts=[1.5, 1, 1, 1]),
        "cfg.json: 'data.synthetic.train_counts': must be a list of 4 integers"),
    "synthetic-count-1e11": (
        lambda p: _synthetic_argv(p, train_counts=[100000000000, 0, 0, 0]),
        "cfg.json: 'data.synthetic.train_counts': must be a list of 4 integers in [0, 4096]"),
    "synthetic-counts-all-0": (
        lambda p: _synthetic_argv(p, train_counts=[0, 0, 0, 0]),
        "cfg.json: 'data.synthetic.train_counts': must hold 1 to 4096 samples in all"),
    "synthetic-split-over-budget": (
        lambda p: _synthetic_argv(p, val_counts=[4096, 1, 0, 0]),
        "cfg.json: 'data.synthetic.val_counts': must hold 1 to 4096 samples in all"),
    "synthetic-noise-nan": (
        lambda p: _synthetic_argv(p, noise_std=float("nan")),
        "cfg.json: 'data.synthetic.noise_std': must be a finite number in (0, 1000000], "
        "got nan"),
    "synthetic-negative-seed": (
        lambda p: _synthetic_argv(p, seed=-1),
        "cfg.json: 'data.synthetic.seed': must be an integer >= 0, got -1"),
    "synthetic-dim-over-budget": (
        lambda p: _synthetic_argv(p, dim=4097),
        "cfg.json: 'data.synthetic.dim': must be an integer in [4, 4096], got 4097"),
    "synthetic-video-shift-short": (
        lambda p: _synthetic_argv(p, video_shift=[1.0, 2.0]),
        "cfg.json: 'data.synthetic.video_shift': must hold dim = 6 numbers, got 2"),
    "feature-file-path-not-a-string": (
        lambda p: _train_argv(p, {"data": {"train_features": 3, "val_features": "v.json"}}),
        "cfg.json: 'data.train_features': must be a non-empty string, got 3"),
    "training-feature-file-over-budget": (
        lambda p: _train_on_features_argv(p, {"records": _feature_doc()["records"] * 1025}),
        "f.json: 4100 records, more than a training split's 4096"),
    "checkpoint-config-lr-bool": (
        lambda p: _evaluate_argv(p, edit_checkpoint=lambda d: d["config"].update(lr=True)),
        "checkpoint.json: 'config.lr': must be a finite number > 0, got True"),
    "checkpoint-config-epochs-float": (
        lambda p: _evaluate_argv(p, edit_checkpoint=lambda d: d["config"].update(epochs=2.5)),
        "checkpoint.json: 'config.epochs': must be an integer >= 1, got 2.5"),
    "checkpoint-config-negative-seed": (
        lambda p: _evaluate_argv(p, edit_checkpoint=lambda d: d["config"].update(seed=-1)),
        "checkpoint.json: 'config.seed': must be an integer >= 0, got -1"),
    "checkpoint-config-hidden-dim-bool": (
        lambda p: _evaluate_argv(
            p, edit_checkpoint=lambda d: d["config"].update(hidden_dim=True)),
        "checkpoint.json: 'config.hidden_dim': must be an integer in [1, 1024], got True"),
    "checkpoint-config-variant-number": (
        lambda p: _evaluate_argv(p, edit_checkpoint=lambda d: d["config"].update(variant=3)),
        "checkpoint.json: 'config.variant': must be one of 'cross_modal', 'vanilla', got 3"),
    "config-not-utf8": (
        lambda p: ["train", "--config", _bytes_file(p / "cfg.json", b'{"train": {}}\n{"\xff"}'),
                   "--out", p / "out"],
        "cfg.json: line 2: not UTF-8 text"),
    "manifest-not-utf8": (
        lambda p: ["analyze", "luma", "--manifest",
                   _bytes_file(p / "m.jsonl", b'{"id": "a"}\n\n{"id": "\xe9"}\n'),
                   "--out", p / "out"],
        "m.jsonl: line 3: not UTF-8 text"),
}


def test_write_json_rejects_non_finite(tmp_path):
    from xmodal import cli

    path = tmp_path / "summary.json"
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli._write_json(path, {"power": value})
    assert not path.exists()


class TestMalformedInputs:
    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_exits_2_with_error_line_and_no_traceback(self, tmp_path, capsys, case):
        build, expected = MALFORMED_INPUTS[case]
        argv = build(tmp_path)
        capsys.readouterr()
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        # every input is read and checked before --out is created
        assert not (tmp_path / "out").exists() and not (tmp_path / "eval").exists()


@pytest.mark.parametrize("command", [["analyze", "luma"], ["degrade", "--chain", "c.json"]])
def test_threads_above_the_bound_exit_2_before_any_pool(tmp_path, capsys, monkeypatch,
                                                        command):
    def no_pool(*args, **kwargs):
        raise AssertionError("started a thread pool")

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
    with pytest.raises(SystemExit) as exc:
        run_cli(*command, "--manifest", tmp_path / "m.jsonl", "--out", tmp_path / "out",
                "--threads", MAX_THREADS + 1)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert (f"argument '--threads': must be an integer in [1, {MAX_THREADS}], "
            f"got {MAX_THREADS + 1}") in err
    assert not (tmp_path / "out").exists()


SUBCOMMANDS = ("analyze", "degrade", "train", "evaluate", "version")


def _help(capsys, monkeypatch, *argv) -> str:
    """What ``xmodal *argv --help`` prints, one option to a line where it fits."""
    monkeypatch.setenv("COLUMNS", "1000")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_options_are_the_flag_rows(capsys, monkeypatch, name):
    # the options a command parses are its rows, with each row's default,
    # plus analyze's kind and --bins
    rows = FLAG_FIELDS.get(name, ())
    special = {"kind": "dct", "bins": None} if name == "analyze" else {}
    argv = [name, *(["dct"] if special else [])]
    argv += [arg for row in rows if row.required for arg in (f"--{row.key}", "v")]
    parsed = {key: value for key, value in vars(build_parser().parse_args(argv)).items()
              if key not in ("command", "func", "usage_error")}
    assert parsed == {**{row.key: "v" if row.required else row.default for row in rows},
                      **special}
    # and --help lists exactly those options, each with its row's words
    assert "{" + ",".join(SUBCOMMANDS) + "}" in _help(capsys, monkeypatch)
    options = _help(capsys, monkeypatch, name).split("options:")[1]
    entries = {}
    for chunk in re.split(r"\n  (?=-)", options):
        if chunk.strip():
            words = chunk.split()
            entries[words[0].lstrip("-").rstrip(",")] = " ".join(words)
    assert set(entries) == {"h"} | {row.key for row in rows} | ({"bins"} if special else set())
    for row in rows:
        assert describe(row) in entries[row.key] and row.help in entries[row.key]
    if special:
        assert all(f"{kind} (default {default}): {describe(bins)}" in entries["bins"]
                   for kind, (default, bins) in BINS.items())


@pytest.mark.parametrize("name", ["analyze", "degrade", "evaluate"])
def test_run_json_records_every_option(corpus, tmp_path, name):
    root, manifest = corpus
    out = tmp_path / "out"
    chain = tmp_path / "chain.json"
    write_chain_file(chain, {"step": "jpeg", "quality": 90})
    argv = {"analyze": ["analyze", "luma", "--manifest", manifest, "--out", out],
            "degrade": ["degrade", "--manifest", manifest, "--chain", chain, "--out", out],
            "evaluate": _evaluate_argv(tmp_path)}[name]
    assert run_cli(*argv) == 0
    out = Path(argv[argv.index("--out") + 1])
    config = json.loads((out / "run.json").read_text())["config"]
    options = {row.key for row in FLAG_FIELDS[name]} | (
        {"kind", "bins"} if name == "analyze" else set())
    assert set(config) == options | ({"headline_acc"} if name == "evaluate" else set())
    assert config["out"] == str(out)


@pytest.mark.parametrize("name, edit, problem", [
    ("w1", lambda e: e["data"].pop(), "95 values do not fill shape [6, 16]"),
    ("wp", lambda e: e["data"].__setitem__(3, "x"),
     "'data': must be a list of any number of finite numbers, got ["),
    ("wc", lambda e: e["data"].__setitem__(0, float("nan")),
     "'data': must be a list of any number of finite numbers, got [nan, "),
    ("b1", lambda e: e.update(shape=[4, 4]), "shape (4, 4), expected (16,)"),
    ("w1", lambda e: e.update(shape=[16, 6]), "shape (16, 6), expected (16, 16)"),
    ("bc", lambda e: e.pop("data"), "'data': missing key"),
    ("bc", lambda e: e["data"].__setitem__(0, True),
     "'data': must be a list of any number of finite numbers, got [True]"),
], ids=["short-data", "string-value", "nan-value", "b1-shape", "w1-shape", "no-data",
        "bool-value"])
def test_malformed_checkpoint_parameter_exits_2_naming_it(tmp_path, capsys, name, edit,
                                                          problem):
    argv = _evaluate_argv(tmp_path, edit_checkpoint=lambda doc: edit(doc["params"][name]))
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'checkpoint.json'}: params.{name}: ")
    assert problem in err and "Traceback" not in err


class TestFeatureFileTraining:
    def separable_records(self, n, seed, subset="train"):
        rng = np.random.default_rng(seed)
        records = []
        for i in range(n):
            label = i % 2
            x = [3.0 if label else -3.0, float(rng.normal())]
            records.append(
                {
                    "id": f"{subset}{i}",
                    "x": x,
                    "label": "fake" if label else "real",
                    "modality": "image" if i % 4 < 2 else "video",
                    "subset": subset,
                }
            )
        return records

    def test_train_from_features_then_evaluate_reaches_full_accuracy(self, tmp_path):
        train_records = self.separable_records(64, 0)
        val_records = self.separable_records(16, 1, subset="val")
        train_f = feature_file(tmp_path, train_records)
        val_f = tmp_path / "val.json"
        val_f.write_text(json.dumps({"records": val_records}))
        config = {
            "data": {"train_features": str(train_f), "val_features": str(val_f)},
            "train": {"epochs": 120, "batch_size": 16, "lambda": 0.0, "seed": 0,
                      "patience": 200},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out", out) == 0
        eval_out = tmp_path / "eval"
        assert run_cli(
            "evaluate", "--checkpoint", out / "checkpoint.json",
            "--features", train_f, "--out", eval_out,
        ) == 0
        report = json.loads((eval_out / "report.json").read_text())
        assert report["overall_pooled"]["acc"] == 1.0

    def test_features_are_checked_finite_once_by_the_reader(self, tmp_path, monkeypatch):
        train_f = feature_file(tmp_path, self.separable_records(36, 0))
        val_f = tmp_path / "val.json"
        val_f.write_text(json.dumps({"records": self.separable_records(20, 1, subset="val")}))
        cfg_path = _write_json(tmp_path / "cfg.json", {
            "data": {"train_features": str(train_f), "val_features": str(val_f)},
            "train": {"epochs": 2, "batch_size": 16, "seed": 0}})
        isfinite, checks = np.isfinite, []

        def spy(a, *args, **kwargs):
            checks.append((np.shape(a), sys._getframe(1).f_code.co_name))
            return isfinite(a, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", spy)
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out", out) == 0
        assert run_cli("evaluate", "--checkpoint", out / "checkpoint.json",
                       "--features", val_f, "--out", tmp_path / "eval") == 0
        # train reads both files, evaluate the validation file
        feature_checks = [check for check in checks if check[0] in ((36, 2), (20, 2))]
        assert feature_checks == [((36, 2), "_feature_columns"), ((20, 2), "_feature_columns"),
                                  ((20, 2), "_feature_columns")]

    def test_diverging_training_exits_3(self, tmp_path):
        train_records = self.separable_records(32, 2)
        train_f = feature_file(tmp_path, train_records)
        config = {
            "data": {"train_features": str(train_f), "val_features": str(train_f)},
            "train": {"epochs": 50, "batch_size": 16, "lambda": 0.0, "seed": 0,
                      "lr": 1e12, "patience": 100},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run_cli("train", "--config", cfg_path, "--out", tmp_path / "o") == 3
        assert not (tmp_path / "o").exists()


class TestAnalyzeWithChain:
    def test_rapsd_chain_preprocessing(self, corpus, tmp_path):
        root, manifest = corpus
        chain_path = tmp_path / "chain.json"
        write_chain_file(chain_path, {"step": "gaussian_blur", "sigma": 2.0})
        plain_out = tmp_path / "plain"
        chain_out = tmp_path / "chained"
        assert run_cli("analyze", "rapsd", "--manifest", manifest,
                       "--out", plain_out, "--bins", 12) == 0
        assert run_cli("analyze", "rapsd", "--manifest", manifest,
                       "--out", chain_out, "--bins", 12, "--chain", chain_path,
                       "--seed", 5) == 0
        plain = json.loads((plain_out / "rapsd.summary.json").read_text())
        chained = json.loads((chain_out / "rapsd.summary.json").read_text())
        assert chained["high_band_power"] < plain["high_band_power"]


    @pytest.mark.parametrize("kind", ["dct", "rapsd", "luma", "spectrum"])
    def test_chain_output_matches_library_fold(self, tmp_path, kind):
        # colour frames: a chain run on RGB and one run on luma give different luma
        entries = []
        for i in range(3):
            path = tmp_path / f"c{i}.ppm"
            save_image(textured_image(seed=400 + i, h=24, w=40, channels=3), path)
            entries.append({"id": f"c{i}", "path": str(path), "label": "real",
                            "modality": "image", "subset": "s"})
        manifest = write_manifest_file(tmp_path / "m.jsonl", entries)
        chain_path = write_chain_file(tmp_path / "chain.json",
                                      {"step": "color_jitter", "brightness": [0.7, 1.3]},
                                      {"step": "jpeg", "quality": 30})
        chain = load_chain(chain_path)
        out = tmp_path / "out"
        assert run_cli("analyze", kind, "--manifest", manifest, "--out", out,
                       "--chain", chain_path, "--seed", 5, "--size", 16) == 0
        with (out / f"{kind}.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        images = [
            apply_chain(load_image(e["path"]), chain,
                        np.random.default_rng(derive_sample_seed(5, e["id"])))
            for e in entries
        ]
        if kind == "dct":
            column, expected = "count", dct_ac_histogram(images).counts
        elif kind == "rapsd":
            column = "power"
            expected = dataset_mean_rapsd(rapsd(img) for img in images).power
        elif kind == "luma":
            column, expected = "count", luminance_histogram(images)
        else:
            column = "log10_power"
            powers = (residual_power(img, 1.0, 16) for img in images)
            expected = residual_spectrum(powers).ravel()
        written = np.array([float(row[column]) for row in rows])
        assert np.array_equal(written, expected)

    def test_missing_chain_exits_2_for_every_kind(self, corpus, tmp_path, capsys):
        root, manifest = corpus
        assert run_cli("analyze", "spectrum", "--manifest", manifest, "--out",
                       tmp_path / "out", "--chain", tmp_path / "no_such.json") == 2
        err = capsys.readouterr().err
        assert "no_such.json" in err and "Traceback" not in err

    def test_dct_chain_preprocessing(self, corpus, tmp_path):
        root, manifest = corpus
        chain_path = tmp_path / "chain.json"
        write_chain_file(chain_path, {"step": "jpeg", "quality": 30})
        plain_out, chain_out = tmp_path / "plain", tmp_path / "chained"
        assert run_cli("analyze", "dct", "--manifest", manifest, "--out", plain_out) == 0
        assert run_cli("analyze", "dct", "--manifest", manifest, "--out", chain_out,
                       "--chain", chain_path) == 0
        plain = json.loads((plain_out / "dct.summary.json").read_text())
        chained = json.loads((chain_out / "dct.summary.json").read_text())
        assert chained["zero_fraction"] != plain["zero_fraction"]
        run = json.loads((chain_out / "run.json").read_text())
        assert run["config"]["chain"] == str(chain_path)
        assert run["inputs"]["chain"]["path"] == str(chain_path)

    def test_run_json_records_analysis_options(self, corpus, tmp_path):
        root, manifest = corpus
        configs = []
        for bins in (8, 16):
            out = tmp_path / f"bins{bins}"
            assert run_cli("analyze", "rapsd", "--manifest", manifest, "--out", out,
                           "--bins", bins, "--window", "hann") == 0
            config = json.loads((out / "run.json").read_text())["config"]
            assert (config["bins"], config["window"]) == (bins, "hann")
            configs.append({k: v for k, v in config.items() if k != "out"})
        assert configs[0] != configs[1]


class TestPartialFailures:
    def broken_corpus(self, tmp_path):
        entries = []
        for i in range(4):
            img = textured_image(seed=300 + i, h=32, w=32)
            p = tmp_path / f"ok_{i}.pgm"
            save_image(img, p)
            entries.append(
                {"id": f"ok{i}", "path": str(p), "label": "real",
                 "modality": "image", "subset": "s"}
            )
        entries.append(
            {"id": "gone", "path": str(tmp_path / "missing.pgm"), "label": "fake",
             "modality": "image", "subset": "s"}
        )
        return write_manifest_file(tmp_path / "m.jsonl", entries)

    @pytest.mark.parametrize("kind, count_key", [
        ("dct", "n_images"), ("rapsd", "n_used"), ("luma", "n_images"), ("spectrum", "n_used"),
    ])
    def test_analyze_reports_failures_and_exits_zero(self, tmp_path, kind, count_key):
        manifest = self.broken_corpus(tmp_path)
        out = tmp_path / "out"
        assert run_cli("analyze", kind, "--manifest", manifest, "--out", out) == 0
        summary = json.loads((out / f"{kind}.summary.json").read_text())
        assert summary["n_failed"] == 1
        assert summary["failed_ids"] == ["gone"]
        [failure] = summary["failures"]
        assert failure["id"] == "gone" and "missing.pgm" in failure["error"]
        assert summary[count_key] == 5 - summary["n_failed"]

    def test_dct_counts_frame_below_one_block_as_failed(self, tmp_path):
        entries = []
        for i, side in enumerate((32, 6, 32)):
            p = tmp_path / f"f{i}.pgm"
            save_image(textured_image(seed=400 + i, h=side, w=side), p)
            entries.append({"id": f"f{i}", "path": str(p), "label": "real",
                            "modality": "image", "subset": "s"})
        manifest = write_manifest_file(tmp_path / "m.jsonl", entries)
        out = tmp_path / "out"
        assert run_cli("analyze", "dct", "--manifest", manifest, "--out", out) == 0
        summary = json.loads((out / "dct.summary.json").read_text())
        assert summary["failed_ids"] == ["f1"]
        assert summary["n_images"] == 2

    def test_degrade_lists_failures_and_exits_zero(self, tmp_path):
        manifest = self.broken_corpus(tmp_path)
        chain_path = tmp_path / "chain.json"
        write_chain_file(chain_path, {"step": "jpeg", "quality": 90})
        out = tmp_path / "deg"
        assert run_cli("degrade", "--manifest", manifest, "--chain", chain_path,
                       "--out", out, "--seed", 0) == 0
        summary = json.loads((out / "degrade.summary.json").read_text())
        assert summary["n_ok"] == 4
        assert summary["n_failed"] == 1
        assert summary["failures"][0]["id"] == "gone"
        assert "missing.pgm" in summary["failures"][0]["error"]
        assert len(parse_manifest(out / "manifest.jsonl")) == 4

    @pytest.mark.parametrize("command", ["analyze", "degrade"])
    def test_header_number_too_long_is_one_failed_frame(self, tmp_path, command):
        # Python will not convert a 5,000-digit integer string
        manifest = self.broken_corpus(tmp_path)
        (tmp_path / "ok_1.pgm").write_bytes(b"P5\n" + b"9" * 5000 + b" 32\n255\n" + bytes(64))
        chain = tmp_path / "chain.json"
        write_chain_file(chain, {"step": "jpeg", "quality": 90})
        argv = ["analyze", "luma"] if command == "analyze" else ["degrade", "--chain", chain]
        out = tmp_path / "out"
        assert run_cli(*argv, "--manifest", manifest, "--out", out) == 0
        summary = json.loads(next(out.glob("*.summary.json")).read_text())
        if command == "analyze":
            assert summary["failed_ids"] == ["ok1", "gone"]
        else:
            assert [f["id"] for f in summary["failures"]] == ["ok1", "gone"]
            assert "header number longer than 9 digits" in summary["failures"][0]["error"]

    @pytest.mark.parametrize("kind", ["rapsd", "spectrum"])
    def test_partial_failures_counted(self, tmp_path, kind):
        manifest = self.broken_corpus(tmp_path)
        out = tmp_path / "out"
        assert run_cli("analyze", kind, "--manifest", manifest, "--out", out,
                       "--size", 32) == 0
        summary = json.loads((out / f"{kind}.summary.json").read_text())
        assert summary["n_used"] == 4
        assert summary["n_failed"] == 1
        assert summary["failed_ids"] == ["gone"]

    @pytest.mark.parametrize("command", ["rapsd", "spectrum", "degrade"])
    def test_all_failures_exit_2(self, tmp_path, capsys, command):
        entries = [{"id": f"s{i}", "path": str(tmp_path / f"gone_{i}.pgm"),
                    "label": "real", "modality": "image", "subset": "s"}
                   for i in range(3)]
        manifest = write_manifest_file(tmp_path / "m.jsonl", entries)
        if command == "degrade":
            chain_path = tmp_path / "chain.json"
            write_chain_file(chain_path, {"step": "jpeg", "quality": 90})
            argv = ("degrade", "--chain", chain_path)
        else:
            argv = ("analyze", command)
        code = run_cli(*argv, "--manifest", manifest, "--out", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert "all 3 samples failed" in err and "Traceback" not in err

    def all_failing_argv(self, tmp_path, kind, out):
        entries = [{"id": f"s{i}", "path": str(tmp_path / f"gone_{i}.pgm"),
                    "label": "real", "modality": "image", "subset": "s"}
                   for i in range(2)]
        manifest = write_manifest_file(tmp_path / "m.jsonl", entries)
        if kind != "degrade":
            return ["analyze", kind, "--manifest", manifest, "--out", out]
        chain = tmp_path / "chain.json"
        write_chain_file(chain, {"step": "jpeg", "quality": 90})
        return ["degrade", "--chain", chain, "--manifest", manifest, "--out", out]

    @pytest.mark.parametrize("kind", ["dct", "rapsd", "luma", "spectrum", "degrade"])
    def test_all_failing_analyze_leaves_no_out(self, tmp_path, capsys, kind):
        out = tmp_path / "new" / "out"
        assert run_cli(*self.all_failing_argv(tmp_path, kind, out)) == 2
        what = "degradation" if kind == "degrade" else f"{kind} analysis"
        assert f"all 2 samples failed {what}" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_all_failing_degrade_keeps_an_out_it_did_not_create(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "keep").mkdir(parents=True)
        assert run_cli(*self.all_failing_argv(tmp_path, "degrade", out)) == 2
        assert [p.name for p in out.iterdir()] == ["keep"]

    def test_degrade_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert run_cli(*self.all_failing_argv(tmp_path, "degrade", out)) == 2
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{out}'\n"
        assert out.is_file()


class TestAnalyzeThreads:
    @pytest.mark.parametrize("kind", ["dct", "rapsd", "luma", "spectrum"])
    def test_threaded_load_matches_serial(self, corpus, tmp_path, kind):
        root, manifest = corpus
        serial, threaded = tmp_path / "ser", tmp_path / "thr"
        for out, threads in ((serial, 1), (threaded, 4)):
            assert run_cli("analyze", kind, "--manifest", manifest, "--out", out,
                           "--threads", threads, "--size", 32) == 0
        for name in (f"{kind}.csv", f"{kind}.summary.json"):
            assert (serial / name).read_bytes() == (threaded / name).read_bytes()

    @pytest.mark.parametrize("kind", ["dct", "rapsd", "luma", "spectrum"])
    def test_threaded_failures_in_manifest_order(self, tmp_path, kind):
        entries = []
        for i in range(9):
            p = tmp_path / f"img_{i}.pgm"
            if i not in (1, 6):
                save_image(textured_image(seed=400 + i, h=32, w=32), p)
            entries.append({"id": f"s{i}", "path": str(p), "label": "real",
                            "modality": "image", "subset": "s"})
        manifest = write_manifest_file(tmp_path / "m.jsonl", entries)
        out = tmp_path / "out"
        assert run_cli("analyze", kind, "--manifest", manifest, "--out", out,
                       "--threads", 3, "--size", 32) == 0
        summary = json.loads((out / f"{kind}.summary.json").read_text())
        assert summary["failed_ids"] == ["s1", "s6"]

    def test_all_failed_exits_2(self, tmp_path, capsys):
        entries = [{"id": f"s{i}", "path": str(tmp_path / f"gone_{i}.pgm"),
                    "label": "real", "modality": "image", "subset": "s"}
                   for i in range(3)]
        manifest = write_manifest_file(tmp_path / "m.jsonl", entries)
        code = run_cli("analyze", "dct", "--manifest", manifest,
                       "--out", tmp_path / "out", "--threads", 2)
        assert code == 2
        assert "all 3 samples failed" in capsys.readouterr().err


# Runs in a fresh interpreter in which ``import scipy`` fails, so any SciPy
# use left in a CLI path raises instead of passing unnoticed.
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from xmodal.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    assert code == 0, (argv, code)
"""


def _python(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(xmodal.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


class TestRuntimeWithoutScipy:
    def test_import_loads_no_scipy_module(self, tmp_path):
        done = _python(tmp_path, "-c", "import sys, xmodal.cli; "
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_degrade_analyze_and_train_run(self, corpus, tmp_path):
        root, manifest = corpus
        chain = tmp_path / "chain.json"
        write_chain_file(chain, {"step": "motion_blur", "length": 5, "angle_deg": 30.0},
                         {"step": "gaussian_blur", "sigma": 1.5},
                         {"step": "jpeg", "quality": 80})
        config = _write_json(tmp_path / "cfg.json", {
            "data": {"synthetic": {"train_counts": [8, 8, 4, 4], "val_counts": [4, 4, 4, 4],
                                   "test_counts": [4, 4, 4, 4], "seed": 0}},
            "train": {"epochs": 2, "batch_size": 8},
        })
        jobs = [
            ["degrade", "--manifest", manifest, "--chain", chain, "--out", tmp_path / "d"],
            ["analyze", "spectrum", "--manifest", manifest, "--out", tmp_path / "s",
             "--size", 16],
            ["train", "--config", config, "--out", tmp_path / "t"],
        ]
        argvs = json.dumps([[str(arg) for arg in argv] for argv in jobs])
        done = _python(tmp_path, "-c", _WITHOUT_SCIPY, argvs)
        assert done.returncode == 0, done.stderr
        assert len(list((tmp_path / "d").glob("*.pgm"))) == 8
        assert (tmp_path / "s" / "spectrum.csv").is_file()
        assert (tmp_path / "t" / "checkpoint.json").is_file()


# Runs one CLI command, if any, in a fresh interpreter and prints the package's
# modules that were loaded after it.
# The xmodal modules a command loaded, by their names in the package, and
# "concurrent.futures" if it loaded the thread pool's module too
_LOADED_MODULES = """
import json, sys
from xmodal.cli import main
argv = json.loads(sys.argv[1])
assert not argv or main(argv) == 0
print(json.dumps(sorted(m.partition(".")[2] for m in sys.modules
                        if m.partition(".")[0] == "xmodal")
                 + ["concurrent.futures"] * ("concurrent.futures" in sys.modules)))
"""
_PIXEL_STACK = {"pixelops", "codecsim", "forensics"}
_LEARNING_STACK = {"cmsupcon", "trainer", "metrics"}


class TestEachCommandLoadsItsOwnStack:
    def loaded(self, tmp_path, argv=()):
        done = _python(tmp_path, "-c", _LOADED_MODULES, json.dumps([str(a) for a in argv]))
        assert done.returncode == 0, done.stderr
        return set(json.loads(done.stdout.splitlines()[-1]))

    @pytest.mark.parametrize("argv", [(), ("version",)], ids=["import", "version"])
    def test_import_and_version_load_no_stack(self, tmp_path, argv):
        assert self.loaded(tmp_path, argv) == {"", "errors", "core", "cli"}

    def test_degrade_and_analyze_load_no_learning_stack(self, corpus, tmp_path):
        root, manifest = corpus
        chain = tmp_path / "chain.json"
        write_chain_file(chain, {"step": "gaussian_blur", "sigma": 1.0},
                         {"step": "jpeg", "quality": 80})
        degrade = self.loaded(tmp_path, ["degrade", "--manifest", manifest, "--chain", chain,
                                         "--out", tmp_path / "d"])
        assert not degrade & (_LEARNING_STACK | {"forensics"})
        analyze = self.loaded(tmp_path, ["analyze", "dct", "--manifest", manifest,
                                         "--out", tmp_path / "a", "--threads", 1])
        assert _PIXEL_STACK <= analyze and not analyze & _LEARNING_STACK
        assert "concurrent.futures" not in analyze

    def test_train_and_evaluate_load_no_pixel_stack(self, tmp_path):
        config = {"data": {"synthetic": {"train_counts": [8, 8, 4, 4],
                                         "val_counts": [4, 4, 4, 4], "seed": 0}},
                  "train": {"epochs": 1, "batch_size": 8}}
        train = self.loaded(tmp_path, _train_argv(tmp_path, config))
        assert not train & (_PIXEL_STACK | {"metrics", "concurrent.futures"})
        evaluate = self.loaded(tmp_path, _evaluate_argv(tmp_path))
        assert {"trainer", "metrics"} <= evaluate and not evaluate & _PIXEL_STACK


class TestLazyPackageNames:
    def test_every_public_name_resolves_from_its_module(self):
        for name in xmodal.__all__:
            module = importlib.import_module(f"xmodal.{xmodal._MODULE_OF[name]}")
            assert getattr(xmodal, name) is getattr(module, name), name
        assert set(xmodal.__all__) <= set(dir(xmodal))

    def test_submodules_resolve_as_attributes(self):
        for name in ("core", "errors", "trainer", "cli"):
            assert getattr(xmodal, name) is importlib.import_module(f"xmodal.{name}")
        assert xmodal.__version__ == xmodal.cli.__version__

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'xmodal' has no attribute 'nope'"):
            xmodal.nope
        assert not hasattr(xmodal, "MAX_SPLIT")


class TestTracedTrainJob:
    def test_one_optimizer_span_per_sgd_step_and_no_public_contrastive_call(self, tmp_path):
        # The benchmark's tracer reads the arguments of the calls it wraps, so a
        # traced job must call the optimizer it wraps and none of the public
        # contrastive pair. A subprocess, since installing the tracer rebinds
        # module globals for the whole process.
        child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
        config = _write_json(tmp_path / "cfg.json", {
            "data": {"synthetic": {"train_counts": [12, 12, 12, 12],
                                   "val_counts": [4, 4, 4, 4],
                                   "test_counts": [4, 4, 4, 4], "seed": 0}},
            "train": {"epochs": 2, "batch_size": 8},
        })
        result = tmp_path / "result.json"
        done = _python(tmp_path, str(child), str(result), "train", "train", "1",
                       "train", "--config", str(config), "--out", str(tmp_path / "t"))
        assert done.returncode == 0, done.stderr
        assert json.loads(result.read_text())["rc"] == 0
        names = [span[1] for span in json.loads(
            (tmp_path / "result.spans.json").read_text())["spans"]]
        steps = 2 * 48 // 8  # two epochs of full batches
        assert names.count("trainer.optimizer_step") == steps
        assert names.count("trainer.backward") == steps
        assert not [name for name in names if name.startswith("cmsupcon.contrastive_")]
