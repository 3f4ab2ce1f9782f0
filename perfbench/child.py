"""Run one xmodal CLI job in a fresh process and report how it went.

Usage: python3 perfbench/child.py RESULT_JSON JOB SPAN_NAME TRACE [CLI ARGS...]

JOB ``probe`` only imports ``xmodal.cli`` (a set-up sample). Otherwise the
job calls ``xmodal.cli.main(CLI ARGS)`` once. The result file records the
CLOCK_MONOTONIC instant the import finished (the parent measures set-up from
the instant it spawned this process), the job's wall time, its exit code and
the process's peak RSS. With TRACE 1 the span tracer is installed first and
the spans and counters are written next to the result.
"""

import json
import resource
import sys
import time


def main() -> int:
    result_path, job, span_name, trace = sys.argv[1:5]
    import xmodal.cli

    imported_at = time.monotonic()
    result = {"imported_at": imported_at, "xmodal_file": xmodal.cli.__file__}
    if job != "probe":
        tracer = None
        if trace == "1":
            from tracer import Tracer

            tracer = Tracer(job, span_name)
            tracer.install()
        t0 = time.perf_counter()
        rc = xmodal.cli.main(sys.argv[5:])
        t1 = time.perf_counter()
        result.update(rc=rc, job_s=t1 - t0)
        if tracer is not None:
            tracer.root_start, tracer.root_end = t0, t1
            spans_path = result_path[: -len(".json")] + ".spans.json"
            tracer.write(spans_path)
            result.update(spans=spans_path, counters=tracer.counters())
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
