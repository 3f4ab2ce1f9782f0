"""The three benchmark workloads: their inputs, CLI jobs, rates and checks.

Each workload states next to its definition why it exists and which of the
program's modules (``cli``, ``core``, ``pixelops``, ``codecsim``,
``forensics``, ``cmsupcon``, ``trainer``, ``metrics``) it loads and leaves
idle. Every job is one ``xmodal`` CLI call run in its own child process.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs
from checks import result

MODULES = ("cli", "core", "pixelops", "codecsim", "forensics", "cmsupcon", "trainer", "metrics")


@dataclass(frozen=True)
class Job:
    id: str
    span: str  # name of the job's root span in a traced run
    argv: tuple[str, ...]
    out: Path
    records: int  # per-sample operations the job attempts


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


class Workload:
    name = ""
    why = ""
    loads: tuple[str, ...] = ()
    warmup: tuple[str, ...] = ()  # ids of jobs run once, unmeasured, before the passes
    jobs: list[Job]

    def __init__(self, root: Path, work: Path, seed: int, nproc: int):
        self.root, self.work, self.seed, self.nproc = root, work, seed, nproc

    @property
    def idle(self) -> tuple[str, ...]:
        return tuple(m for m in MODULES if m not in self.loads)

    def rel(self, path: Path) -> str:
        return str(path.relative_to(self.root))

    def rates(self, results: dict) -> dict[str, tuple[float, str]]:
        """Named end-to-end rates of one pass, from the jobs' wall times."""
        raise NotImplementedError

    def unexpected_failures(self, job: Job) -> int:
        """Per-sample outcomes that differ from the planted ones."""
        return 0

    def checks(self) -> list[tuple[str, bool, str]]:
        raise NotImplementedError


class _CorpusWorkload(Workload):
    def _failed_ids(self, job: Job):
        raise NotImplementedError

    def unexpected_failures(self, job: Job) -> int:
        failed = self._failed_ids(job)
        if failed is None:
            return job.records
        return len(set(failed) ^ set(self.corpus.bad_ids)) + (len(failed) - len(set(failed)))


class DegradeCorpus(_CorpusWorkload):
    """``xmodal degrade`` over a 36-frame corpus, at 1 thread and at nproc threads.

    Why: the paper's video-delivery simulation (motion blur, resize, JPEG,
    video codec) is the toolkit's heaviest pixel path and its only parallel
    one. Loads codecsim and pixelops, reads and writes files through core.
    forensics, cmsupcon, trainer and metrics stay idle.
    Predictions: with OpenBLAS pinned to one thread the nproc-thread run is
    already about 1.7x the 1-thread rate on 2 cores (unpinned BLAS threads
    oversubscribe the cores and hold it near 1.1x), so a process pool can
    raise ``degrade_fps_nt`` by at most the rest of the way to nproc-fold
    and should leave ``degrade_fps_1t`` flat; a faster codec or pixel step
    saves at most its span's share of the job.
    """

    name = "degrade_corpus"
    why = "canonical blur-resize-jpeg-codec chain over 36 video frames at 1 and nproc threads"
    loads = ("cli", "core", "pixelops", "codecsim")
    warmup = ("degrade_nt",)
    N_FRAMES = 36  # 6 videos; small enough for four passes a run

    def __init__(self, root, work, seed, nproc):
        super().__init__(root, work, seed, nproc)
        self.corpus = inputs.make_corpus(work / "corpus", root, self.N_FRAMES, seed)
        chain = inputs.write_chain(work / "chain.json")
        self.jobs = [
            Job(
                id=f"degrade_{tag}",
                span=f"cli.degrade.{tag}",
                argv=("degrade", "--manifest", self.rel(self.corpus.manifest),
                      "--chain", self.rel(chain), "--out", self.rel(work / f"out_{tag}"),
                      "--seed", str(seed % 2**31), "--threads", str(threads)),
                out=work / f"out_{tag}",
                records=self.corpus.n_records,
            )
            for tag, threads in (("1t", 1), ("nt", nproc))
        ]

    def _summary(self, job: Job):
        return _read_json(job.out / "degrade.summary.json")

    def _failed_ids(self, job):
        summary = self._summary(job)
        return None if summary is None else [f["id"] for f in summary["failures"]]

    def rates(self, results):
        out = {}
        for job, metric in zip(self.jobs, ("degrade_fps_1t", "degrade_fps_nt")):
            summary = self._summary(job)
            if summary is not None and results[job.id].get("rc") == 0:
                out[metric] = (summary["n_ok"] / results[job.id]["job_s"], "frames/s")
        return out

    def checks(self):
        one, many = self.jobs
        found = []
        names_1 = sorted(p.name for p in one.out.glob("*.ppm"))
        names_n = sorted(p.name for p in many.out.glob("*.ppm"))
        same = names_1 == names_n and all(
            (one.out / n).read_bytes() == (many.out / n).read_bytes() for n in names_1
        ) and self._summary(one) == self._summary(many)
        found.append(result("degrade.threads_byte_identical", same and names_1,
                            f"{len(names_1)} files at 1 thread, {len(names_n)} at {self.nproc}"))
        summary = self._summary(one) or {"n_ok": -1, "n_failed": -1, "failures": []}
        n_bad = len(self.corpus.bad_ids)
        found.append(result(
            "degrade.planted_failures_exact",
            summary["n_failed"] == n_bad and self._failed_ids(one) is not None
            and set(self._failed_ids(one)) == set(self.corpus.bad_ids),
            f"n_failed {summary['n_failed']}, planted {n_bad}"))
        manifest = [json.loads(line) for line in
                    (one.out / "manifest.jsonl").read_text().splitlines()] \
            if (one.out / "manifest.jsonl").is_file() else []
        shapes_ok = len(manifest) == self.corpus.n_frames == summary["n_ok"]
        degraded = {}
        for rec in manifest:
            try:
                img = checks.read_ppm(self.root / rec["path"])
            except (OSError, ValueError):
                shapes_ok = False
                continue
            shapes_ok &= min(img.shape[:2]) == inputs.CHAIN_SHORTER_SIDE
            degraded[rec["id"]] = img
        found.append(result("degrade.outputs_load_shorter_side_256", shapes_ok,
                            f"{len(degraded)} outputs"))
        # Paper criteria 4 and 5, in direction only: the chain raises the share
        # of (near-)zero AC coefficients and cuts top-third RAPSD power.
        rng = np.random.default_rng(self.seed)
        sample = sorted(rng.choice(sorted(degraded), size=min(6, len(degraded)),
                                   replace=False).tolist()) if degraded else []
        zac_ok = rapsd_ok = bool(sample)
        worst = []
        for rec_id in sample:
            src = checks.luma255(checks.read_ppm(self.corpus.frame_paths[rec_id]))
            dst = checks.luma255(degraded[rec_id])
            z0, z1 = checks.near_zero_ac_fraction(src), checks.near_zero_ac_fraction(dst)
            p0, p1 = checks.top_third_rapsd(src), checks.top_third_rapsd(dst)
            zac_ok &= z1 > z0
            rapsd_ok &= p1 < p0
            worst.append(f"{rec_id}: zero-AC {z0:.3f}->{z1:.3f}, top-third {p0:.2e}->{p1:.2e}")
        found.append(result("degrade.zero_ac_fraction_rises", zac_ok, "; ".join(worst[:2])))
        found.append(result("degrade.top_third_rapsd_falls", rapsd_ok, f"{len(sample)} frames"))
        return found


class ForensicScan(_CorpusWorkload):
    """``xmodal analyze dct|rapsd|luma|spectrum`` over a 108-frame corpus.

    Why: the read-only analysis path, dominated by the reducers, and the
    memory path: ``dct`` and ``luma`` hold the whole corpus in memory while
    ``rapsd`` and ``spectrum`` stream. Loads forensics, pixelops (to_luma,
    gaussian_blur) and core reads; codecsim's simulators, cmsupcon, trainer
    and metrics stay idle (forensics borrows only codecsim's block DCT).
    Prediction: streaming the reducers should cut ``peak_rss_mb`` here and
    leave the ``*_images_per_s`` rates flat.
    """

    name = "forensic_scan"
    why = "four dataset analyses over 108 frames; two hold the corpus in memory"
    loads = ("cli", "core", "pixelops", "forensics")
    warmup = ("analyze_spectrum",)
    N_FRAMES = 108  # three times degrade's corpus, with the same share of bad records
    KINDS = ("dct", "rapsd", "luma", "spectrum")
    _COUNT_KEY = {"dct": "n_images", "luma": "n_images", "rapsd": "n_used", "spectrum": "n_used"}

    def __init__(self, root, work, seed, nproc):
        super().__init__(root, work, seed, nproc)
        self.corpus = inputs.make_corpus(work / "corpus", root, self.N_FRAMES, seed)
        self.jobs = [
            Job(
                id=f"analyze_{kind}",
                span=f"cli.analyze.{kind}",
                argv=("analyze", kind, "--manifest", self.rel(self.corpus.manifest),
                      "--out", self.rel(work / f"out_{kind}")),
                out=work / f"out_{kind}",
                records=self.corpus.n_records,
            )
            for kind in self.KINDS
        ]

    def _kind(self, job):
        return job.id.split("_", 1)[1]

    def _summary(self, job):
        return _read_json(job.out / f"{self._kind(job)}.summary.json")

    def _failed_ids(self, job):
        summary = self._summary(job)
        return None if summary is None else summary["failed_ids"]

    def rates(self, results):
        out = {}
        for job in self.jobs:
            kind = self._kind(job)
            summary = self._summary(job)
            if summary is not None and results[job.id].get("rc") == 0:
                n = summary[self._COUNT_KEY[kind]]
                out[f"{kind}_images_per_s"] = (n / results[job.id]["job_s"], "images/s")
        return out

    def checks(self):
        found = []
        n_rec, n_frames = self.corpus.n_records, self.corpus.n_frames
        bad = set(self.corpus.bad_ids)
        summaries = {self._kind(j): self._summary(j) or {} for j in self.jobs}
        for kind, s in summaries.items():
            n = s.get(self._COUNT_KEY[kind], -1)
            found.append(result(
                f"analyze.{kind}.records_accounted",
                n + s.get("n_failed", 0) == n_rec and set(s.get("failed_ids", [])) == bad,
                f"{n} used + {s.get('n_failed')} failed of {n_rec}"))
        blocks = (inputs.HEIGHT // 8) * (inputs.WIDTH // 8)
        expected_ac = n_frames * blocks * 63
        dct = summaries["dct"]
        found.append(result("analyze.dct.total_ac_from_dimensions",
                            dct.get("total_ac") == expected_ac,
                            f"{dct.get('total_ac')} vs {expected_ac}"))
        luma = summaries["luma"]
        expected_px = n_frames * inputs.HEIGHT * inputs.WIDTH
        luma_csv = self.jobs[2].out / "luma.csv"
        found.append(result(
            "analyze.luma.total_pixels_from_dimensions",
            luma.get("total_pixels") == expected_px and luma_csv.is_file()
            and sum(checks.csv_column(luma_csv, "count")) == expected_px,
            f"{luma.get('total_pixels')} vs {expected_px}"))
        found.append(result("analyze.luma.verdict_full", luma.get("verdict") == "full",
                            str(luma.get("verdict"))))
        finite = True
        try:
            finite &= checks.all_finite(checks.csv_column(self.jobs[1].out / "rapsd.csv", "power"))
            finite &= checks.all_finite(
                checks.csv_column(self.jobs[3].out / "spectrum.csv", "log10_power"))
            finite &= checks.all_finite(checks.csv_column(self.jobs[0].out / "dct.csv", "count"))
            finite &= all(
                checks.all_finite(v for v in s.values() if isinstance(v, (int, float)))
                for s in summaries.values()
            )
        except (OSError, KeyError, ValueError):
            finite = False
        found.append(result("analyze.profiles_finite", finite))
        return found


class TrainEval(Workload):
    """``xmodal train`` on the default synthetic task, then ``xmodal evaluate --frames 4``.

    Why: the paper's objective. Training drives cmsupcon both as batch-32
    gradient steps and as the full-set O(n^2) loss recomputed twice per
    epoch, plus trainer; evaluation scores 30,000 frame-level feature
    records through the per-record loop in cli, trainer.forward and metrics.
    core, pixelops, codecsim and forensics stay idle (no pixels).
    Predictions: a fused contrastive kernel should cut ``train_s`` by at most
    the contrastive spans' share of the train job and leave
    ``eval_frames_per_s`` flat; batching the scoring loop should raise
    ``eval_frames_per_s`` and leave ``train_s`` flat.
    """

    name = "train_eval"
    why = "default synthetic training task, then evaluate 30k frame features in videos"
    loads = ("cli", "cmsupcon", "trainer", "metrics")
    VAL_ACC_FLOOR = 0.95

    def __init__(self, root, work, seed, nproc):
        super().__init__(root, work, seed, nproc)
        config = inputs.write_train_config(work / "train.json", seed)
        self.features = inputs.write_feature_file(work / "features.json", seed)
        train_out, eval_out = work / "out_train", work / "out_eval"
        self.checkpoint = train_out / "checkpoint.json"
        self.jobs = [
            Job("train", "cli.train",
                ("train", "--config", self.rel(config), "--out", self.rel(train_out)),
                train_out, 1),
            Job("evaluate", "cli.evaluate",
                ("evaluate", "--checkpoint", self.rel(self.checkpoint),
                 "--features", self.rel(self.features.path), "--out", self.rel(eval_out),
                 "--frames", str(inputs.EVAL_FRAMES_SCORED)),
                eval_out, self.features.n_frames),
        ]

    def rates(self, results):
        out = {}
        train, evaluate = (results[j.id] for j in self.jobs)
        if train.get("rc") == 0:
            out["train_s"] = (train["job_s"], "s")
        if evaluate.get("rc") == 0:
            out["eval_frames_per_s"] = (self.features.n_frames / evaluate["job_s"], "frames/s")
        return out

    def _val_accuracy(self, params) -> float:
        # The train job draws its data inside the program; regenerate the same
        # validation split through the program's own generator.
        sys.path.insert(0, str(self.root / "src"))
        from xmodal.trainer import SyntheticSpec, generate_synthetic

        val = generate_synthetic(SyntheticSpec.default(seed=inputs.train_seed(self.seed))).val
        return float(np.mean((checks.logits(params, val.x) >= 0.0) == (val.y == 1)))

    def checks(self):
        found = []
        try:
            params = checks.load_checkpoint_params(self.checkpoint)
        except (OSError, ValueError, KeyError) as exc:
            return [result("train.checkpoint_loads", False, str(exc))]
        acc = self._val_accuracy(params)
        found.append(result("train.val_accuracy_floor", acc >= self.VAL_ACC_FLOOR,
                            f"val acc {acc:.4f} >= {self.VAL_ACC_FLOOR}"))
        records = json.loads(self.features.path.read_text(encoding="utf-8"))["records"]
        preds = checks.video_scores(params, records, inputs.EVAL_FRAMES_SCORED)
        found.append(result("evaluate.scores_finite_in_unit_interval",
                            all(math.isfinite(s) and 0.0 <= s <= 1.0 for s, _, _ in preds),
                            f"{len(preds)} videos and images"))
        report = _read_json(self.jobs[1].out / "report.json")
        values = []

        def walk(node):
            if isinstance(node, dict):
                for k, v in node.items():
                    if k not in ("n_real", "n_fake", "threshold"):
                        walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            elif isinstance(node, float):
                values.append(node)

        walk(report)
        found.append(result("evaluate.report_values_in_unit_interval",
                            report is not None and values
                            and all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)))
        mismatches = checks.report_mismatches(report, checks.report_oracle(preds))
        found.append(result("evaluate.report_equals_numpy_oracle", not mismatches,
                            "; ".join(mismatches[:3])))
        return found


WORKLOADS = {w.name: w for w in (DegradeCorpus, ForensicScan, TrainEval)}
