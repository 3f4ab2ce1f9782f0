"""xmodal benchmark: end-to-end CLI workloads, output checks and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload degrade_corpus --seed 1 --seconds 25 --trace 0

Workloads are defined in ``workloads.py``; all inputs are generated from
``--seed``. Each CLI job runs in its own child process (``child.py``), one
child at a time, with BLAS pinned to one thread so that no job uses more
threads than ``nproc``. Passes over the workload's jobs repeat until
``--seconds`` have been measured; outputs are then checked untimed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from the traced
ones, including the tracing overhead. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Human-readable
detail goes to the lines before it and to ``perfbench/_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s", "spawn of a child to xmodal.cli imported; median over the job children"),
    ("pass_s", "s", "wall time of one pass over the workload's CLI jobs; median over passes"),
    ("peak_rss_mb", "MB", "largest ru_maxrss among the workload's job processes"),
)

# Per-layer metrics reported by every traced run; layers a workload leaves
# idle read 0. ``<span>.<stat>`` with stats calls, total_s, self_s, p50_ms, p90_ms.
JOB_SPANS = ("cli.degrade.1t", "cli.degrade.nt", "cli.analyze.dct", "cli.analyze.rapsd",
             "cli.analyze.luma", "cli.analyze.spectrum", "cli.train", "cli.evaluate")
SPAN_STATS = {
    "core.load_image": ("calls", "self_s", "p50_ms", "p90_ms"),
    "core.save_image": ("calls", "self_s"),
    "core.parse_manifest": ("self_s",),
    "core.write_manifest": ("self_s",),
    "pixelops.motion_blur": ("calls", "self_s"),
    "pixelops.shorter_side_resize": ("calls", "self_s"),
    "pixelops.rgb_to_ycbcr": ("calls", "self_s"),
    "pixelops.ycbcr_to_rgb": ("calls", "self_s"),
    "pixelops.quantize_8bit": ("calls", "self_s"),
    "pixelops.to_luma": ("calls", "self_s"),
    "pixelops.gaussian_blur": ("calls", "self_s"),
    "codecsim.apply_chain": ("calls", "total_s", "self_s"),
    "codecsim.jpeg_simulate": ("calls", "total_s", "self_s", "p50_ms", "p90_ms"),
    "codecsim.video_codec_simulate": ("calls", "total_s", "self_s", "p50_ms"),
    "forensics.dct_ac_histogram": ("total_s", "self_s"),
    "forensics.dataset_mean_rapsd": ("total_s", "self_s"),
    "forensics.rapsd": ("calls", "self_s", "p50_ms"),
    "forensics.luminance_histogram": ("total_s", "self_s"),
    "forensics.detect_tv_range": ("self_s",),
    "forensics.residual_spectrum": ("total_s", "self_s"),
    "cmsupcon.contrastive_loss.full": ("calls", "self_s", "p50_ms"),
    "cmsupcon.contrastive_grad.batch": ("calls", "self_s", "p50_ms"),
    "cmsupcon.binary_cross_entropy.full": ("calls", "self_s"),
    "cmsupcon.bce_grad.batch": ("calls", "self_s"),
    "trainer.train": ("total_s", "self_s"),
    "trainer.backward": ("calls", "total_s", "self_s", "p50_ms"),
    "trainer.optimizer_step": ("calls", "self_s"),
    "trainer.forward.row": ("calls", "self_s"),
    "trainer.forward.batch": ("calls", "self_s"),
    "trainer.forward.full": ("calls", "self_s"),
    "trainer.mixed_batch_sampler": ("calls", "self_s"),
    "trainer.contrastive_term": ("calls", "total_s", "self_s"),
    "trainer.ToyModel.from_params": ("calls", "self_s"),
    "metrics.group_frames": ("self_s",),
    "metrics.multi_frame_average": ("calls", "self_s", "p50_ms"),
    "metrics.per_subset_report": ("total_s", "self_s"),
}
COUNTERS = (
    ("core.bytes_read", "bytes", "lower"),
    ("core.bytes_written", "bytes", "lower"),
    ("codecsim.dct_blocks", "count", "lower"),
    ("codecsim.dct_bytes_computed", "bytes", "lower"),
    ("forensics.dct_blocks", "count", "lower"),
    ("forensics.dct_bytes_computed", "bytes", "lower"),
    ("cmsupcon.valid_anchor_frac", "frac", "higher"),
    ("cmsupcon.anchors", "count", "lower"),
    ("trainer.epochs", "count", "lower"),
    ("trainer.sgd_steps", "count", "lower"),
    ("trainer.dead_row_frac", "frac", "lower"),
    ("trainer.feature_rows", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)
_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "p50_ms": "ms", "p90_ms": "ms",
          "peak_rss_mb": "MB"}


def per_layer_spec() -> list[tuple[str, str, str]]:
    spec = [(f"{span}.{stat}", _UNITS[stat], "lower")
            for span in JOB_SPANS for stat in ("total_s", "self_s", "peak_rss_mb")]
    spec += [(f"{span}.{stat}", _UNITS[stat], "lower")
             for span, stats in SPAN_STATS.items() for stat in stats]
    return spec + list(COUNTERS)


# --- child processes ------------------------------------------------------------


class ChildRunner:
    """Spawns one child at a time and collects its result file."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(root / "src")}
        self.count = 0

    def run(self, job_id: str, span: str, argv=(), trace: bool = False) -> dict:
        self.count += 1
        stem = self.work / "children" / f"{self.count:04d}_{job_id}"
        stem.parent.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), f"{stem}.json", job_id, span,
               "1" if trace else "0", *argv]
        timeout = max(5.0, self.deadline - time.monotonic())
        with open(f"{stem}.log", "wb") as log:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=timeout)
                exit_code = proc.returncode
            except subprocess.TimeoutExpired:
                exit_code = "timeout"
        doc = {}
        if Path(f"{stem}.json").is_file():
            doc = json.loads(Path(f"{stem}.json").read_text(encoding="utf-8"))
            doc["setup_s"] = doc["imported_at"] - spawned
        doc["exit_code"] = exit_code
        if exit_code != 0 and "rc" in doc:
            doc["rc"] = exit_code
        doc["log"] = f"{stem}.log"
        return doc


def run_pass(workload, runner: ChildRunner, trace: bool) -> dict:
    results = {}
    for job in workload.jobs:
        shutil.rmtree(job.out, ignore_errors=True)
        results[job.id] = runner.run(job.id, job.span, job.argv, trace)
    outcome = {"trace": trace, "results": results, "failed": 0, "attempted": 0, "digests": {}}
    for job in workload.jobs:
        res = results[job.id]
        outcome["attempted"] += 1 + job.records
        if res.get("rc") != 0:
            outcome["failed"] += 1 + job.records
        else:
            outcome["failed"] += workload.unexpected_failures(job)
        outcome["digests"][job.id] = checks.tree_digest(job.out) if job.out.is_dir() else None
    ok = all(r.get("rc") == 0 for r in results.values())
    outcome["pass_s"] = sum(r["job_s"] for r in results.values()) if ok else None
    outcome["rates"] = workload.rates(results)
    return outcome


# --- reduction -------------------------------------------------------------------


def spread(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_values(workload, outcome: dict, pooled: dict) -> dict:
    """Per-layer metric values of one traced pass; its spans also go into ``pooled``."""
    per_name: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for job in workload.jobs:
        res = outcome["results"][job.id]
        doc = json.loads(Path(res["spans"]).read_text(encoding="utf-8"))
        spans = [tuple(s) for s in doc["spans"]]
        tracer.accumulate(spans, per_name)
        tracer.accumulate(spans, pooled)
        for key, value in res["counters"].items():
            counters[key] = counters.get(key, 0) + value
    table = tracer.finish(per_name)
    values = {}
    for name, _, _ in per_layer_spec():
        span, _, stat = name.rpartition(".")
        if stat == "peak_rss_mb":
            job = next((j for j in workload.jobs if j.span == span), None)
            values[name] = (outcome["results"][job.id]["maxrss_kb"] / 1024.0) if job else 0.0
        elif stat in _UNITS:
            values[name] = float(table.get(span, {}).get(stat, 0.0))
    anchors, rows = counters.get("cmsupcon.anchors", 0), counters.get("trainer.feature_rows", 0)
    values.update({k: float(counters.get(k, 0)) for k, _, _ in COUNTERS})
    values["cmsupcon.valid_anchor_frac"] = (
        counters.get("cmsupcon.valid_anchors", 0) / anchors if anchors else 0.0)
    values["trainer.dead_row_frac"] = counters.get("trainer.dead_rows", 0) / rows if rows else 0.0
    values["trainer.epochs"] = float(table.get("trainer.mixed_batch_sampler", {}).get("calls", 0))
    values["trainer.sgd_steps"] = float(table.get("trainer.optimizer_step", {}).get("calls", 0))
    return values


def run_record(root: Path) -> dict:
    import scipy

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
        revision = git.stdout.strip() if git.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unavailable"  # a checkout without git metadata; src_sha256 identifies it
    src = hashlib.sha256()
    for path in sorted((root / "src" / "xmodal").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), "unknown")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "git_revision": revision,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_ENV,
    }


def check_benchmark_file(root: Path) -> str | None:
    """The checked-in metric lists must match what this script prints."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    e2e = [m["name"] for m in doc.get("end_to_end", [])]
    layers = [m["name"] for m in doc.get("per_layer", [])]
    if e2e != [m[0] for m in END_TO_END] or layers != [m[0] for m in per_layer_spec()]:
        return "BENCHMARK.json metric lists differ from perfbench/run.py"
    if sorted(w["name"] for w in doc.get("workloads", [])) != sorted(WORKLOADS):
        return "BENCHMARK.json workloads differ from perfbench/workloads.py"
    return None


# --- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "xmodal" / "cli.py").is_file():
        print("error: run from a checkout root holding src/xmodal", file=sys.stderr)
        return 2
    problem = check_benchmark_file(root)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    work = HERE / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, root, work, trace, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root: Path, work: Path, trace: bool, started: float) -> int:
    nproc = len(os.sched_getaffinity(0))
    runner = ChildRunner(root, work, started + RUN_LIMIT_S)
    warm = runner.run("probe", "probe")  # fills bytecode and file caches; not a sample
    expected = (root / "src" / "xmodal" / "cli.py").resolve()
    if warm.get("exit_code") != 0 or Path(warm.get("xmodal_file", "")).resolve() != expected:
        log = Path(warm["log"]).read_text(errors="replace")[-2000:]
        print(f"error: cannot import xmodal from {root / 'src'}\n{log}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](root, work, args.seed, nproc)
    # A job's speed depends on what ran just before it (the memory the last
    # child freed, the page cache); warm up so that every measured job has
    # the same predecessor in every pass.
    for job in workload.jobs:
        if job.id in workload.warmup:
            runner.run(job.id, job.span, job.argv)

    passes = []
    measure_start = time.monotonic()
    while True:
        want_trace = trace and bool(passes) and not passes[-1]["trace"]
        passes.append(run_pass(workload, runner, want_trace))
        done = time.monotonic() - measure_start >= args.seconds
        if done and (not trace or any(p["trace"] for p in passes)):
            break
    setup_times = [r["setup_s"] for p in passes for r in p["results"].values()
                   if "setup_s" in r]

    # Untimed checks: reruns byte-identical, then the workload's own checks.
    found = []
    for job in workload.jobs:
        digests = {p["digests"][job.id] for p in passes}
        found.append(checks.result(f"{job.id}.reruns_byte_identical",
                                   len(digests) == 1 and None not in digests,
                                   f"{len(passes)} passes"))
    found += workload.checks()
    attempted = sum(p["attempted"] for p in passes) + len(found)
    failed = sum(p["failed"] for p in passes) + sum(not ok for _, ok, _ in found)

    plain = [p for p in passes if not p["trace"]]
    pass_times = [p["pass_s"] for p in plain if p["pass_s"] is not None]
    rss = [r["maxrss_kb"] / 1024.0 for p in plain for r in p["results"].values()
           if "maxrss_kb" in r]
    named: dict[str, dict] = {}
    for p in plain:
        for name, (value, unit) in p["rates"].items():
            named.setdefault(name, {"unit": unit, "values": []})["values"].append(value)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run_record": run_record(root),
        "definition": {"why": workload.why, "loads": workload.loads, "idle": workload.idle},
        "passes": [{"trace": p["trace"], "pass_s": p["pass_s"],
                    "jobs": {k: {f: r.get(f) for f in ("setup_s", "job_s", "rc", "maxrss_kb")}
                             for k, r in p["results"].items()}} for p in passes],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in found],
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
    }
    e2e = {}
    if pass_times and setup_times and rss:
        e2e = {"setup_s": spread(setup_times), "pass_s": spread(pass_times),
               "peak_rss_mb": spread([max(rss)])}
    for name, entry in named.items():
        e2e[name] = {**spread(entry["values"]), "unit": entry["unit"]}
    report["end_to_end"] = e2e

    metrics = {}
    if trace:
        traced = [p for p in passes if p["trace"] and p["pass_s"] is not None]
        pooled: dict[str, dict] = {}
        per_pass = [layer_values(workload, p, pooled) for p in traced]
        # Additive stats are medians over traced passes; percentiles pool the
        # calls of all traced passes, so that rarer spans reach enough samples.
        table = tracer.finish(pooled)
        for values in per_pass:
            for name in values:
                span, _, stat = name.rpartition(".")
                if stat in ("p50_ms", "p90_ms"):
                    values[name] = float(table.get(span, {}).get(stat, 0.0))
        overhead = (statistics.median(p["pass_s"] for p in traced)
                    - statistics.median(pass_times)) if traced and pass_times else 0.0
        for name, unit, _ in per_layer_spec():
            if name == "trace.overhead_s":
                value = overhead
            elif name == "trace.overhead_frac":
                value = overhead / statistics.median(pass_times) if pass_times else 0.0
            else:
                value = statistics.median(v[name] for v in per_pass) if per_pass else 0.0
            metrics[name] = {"value": value, "unit": unit}
        report["span_table"] = table
        report["per_layer"] = metrics
    elif e2e.keys() >= {m[0] for m in END_TO_END}:
        metrics = {name: {"value": e2e[name]["median"], "unit": unit}
                   for name, unit, _ in END_TO_END}

    results_dir = HERE / "_results"
    results_dir.mkdir(exist_ok=True)
    out_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")
    _print_report(report, workload)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _print_report(report: dict, workload) -> None:
    rec = report["run_record"]
    print(f"xmodal benchmark: workload {report['workload']}, seed {report['seed']}, "
          f"trace {report['trace']}, {len(report['passes'])} passes")
    print(f"  why: {workload.why}")
    print(f"  loads: {', '.join(workload.loads)}; idle: {', '.join(workload.idle)}")
    print(f"  machine: nproc {rec['nproc']}, {rec['cpu']}; python {rec['python']}, numpy "
          f"{rec['numpy']}, scipy {rec['scipy']}, blas {rec['blas'].get('name')} "
          f"{rec['blas'].get('version')} threads {rec['blas_threads']['OPENBLAS_NUM_THREADS']}; "
          f"revision {rec['git_revision']}, src {rec['src_sha256'][:12]}")
    print("end-to-end (median [q1, q3], n):")
    for name, s in report["end_to_end"].items():
        unit = s.get("unit") or next(u for n, u, _ in END_TO_END if n == name)
        print(f"  {name:24s} {s['median']:12.4f} {unit:9s} [{s['q1']:.4f}, {s['q3']:.4f}]"
              f"  n={s['n']}")
    print(f"  {'error_rate':24s} {report['error_rate']:12.4f} {'frac':9s} "
          f"({report['failed']} failed of {report['attempted']} operations)")
    print("checks:")
    for c in report["checks"]:
        print(f"  {'PASS' if c['ok'] else 'FAIL'} {c['name']}  {c['detail']}")
    if "span_table" in report:
        traced = [p for p in report["passes"] if p["trace"]]
        print(f"traced run, {len(traced)} traced passes pooled: per job, "
              "wall = child spans + cli self")
        table = report["span_table"]
        for job in workload.jobs:
            wall = table.get(job.span, {}).get("total_s", 0.0)
            own = table.get(job.span, {}).get("self_s", 0.0)
            print(f"  {job.span:24s} wall {wall:8.4f} s  in child spans {wall - own:8.4f} s"
                  f"  cli self {own:8.4f} s")
        print(f"  {'span':36s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s} "
              f"{'p50_ms':>8s} {'p90_ms':>8s}")
        for name, s in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            p50 = f"{s['p50_ms']:8.3f}" if "p50_ms" in s else f"{'-':>8s}"
            p90 = f"{s['p90_ms']:8.3f}" if "p90_ms" in s else f"{'-':>8s}"
            print(f"  {name:36s} {s['calls']:7d} {s['total_s']:9.4f} {s['self_s']:9.4f} "
                  f"{p50} {p90}")
        per_layer = report["per_layer"]
        print(f"  tracing overhead {per_layer['trace.overhead_s']['value']:.4f} s per pass "
              f"({100 * per_layer['trace.overhead_frac']['value']:.1f}% of untraced pass_s)")
        for name in ("cmsupcon.valid_anchor_frac", "trainer.dead_row_frac"):
            base = "cmsupcon.anchors" if name.startswith("cmsupcon") else "trainer.feature_rows"
            print(f"  {name} {per_layer[name]['value']:.4f} of "
                  f"{per_layer[base]['value']:.0f} {base.split('.')[1]}")
        print("  codecsim/forensics dct_blocks and dct_bytes_computed are computed from "
              "array shapes, not measured")


if __name__ == "__main__":
    sys.exit(main())
