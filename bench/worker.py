"""One workload execution: a fresh process that runs minimaxlab CLI invocations.

Usage: python3 bench/worker.py '<job json>'

The job holds `invocations` (argument lists for `minimaxlab` main), `result`
(path of the JSON file this process writes), `trace` (record spans) and
`probe` (stop at the first call into the computation, to time set-up only).
Set-up ends when `cli.run` is first entered: by then the interpreter has
started, numpy, scipy and minimaxlab are imported and the config is parsed.
Times are CLOCK_MONOTONIC readings, which the parent process shares.
"""

import json
import os
import sys
import time
import warnings

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))


class SetupDone(Exception):
    """Raised in a probe at the first call into the computation."""


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def execute(job: dict) -> dict:
    """Run the job's invocations in this process and return the result record."""
    from minimaxlab import cli

    tracer = None
    if job["trace"]:
        import spans  # only here, so untraced set-up time does not include it
        tracer = spans.Tracer()
        tracer.install()
    marks: dict = {}
    run = cli.run

    def first_call(cfg):
        marks.setdefault("t_setup", time.monotonic())
        if job["probe"]:
            raise SetupDone
        return run(cfg)

    cli.run = first_call
    runs, warned = [], 0
    try:
        for i, argv in enumerate(job["invocations"]):
            rec = {"exit": None, "error": None, "out": argv[argv.index("--out") + 1]}
            try:
                if tracer is None:
                    rec["exit"] = cli.main(argv)
                else:
                    tracer.run_id = i
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        rec["exit"] = cli.main(argv)
                    warned += sum(str(w.message).startswith(spans.OVERLAP_WARNING)
                                  for w in caught)
            except SetupDone:
                break
            except Exception as exc:  # a run that raises counts as failed
                rec["error"] = f"{type(exc).__name__}: {exc}"
            runs.append(rec)
    finally:
        cli.run = run
        if tracer is not None:
            tracer.uninstall()
    result = {"t_setup": marks.get("t_setup"), "t_end": time.monotonic(), "runs": runs}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["overlap_warnings"] = warned
        result["cache_hits"] = spans.cache_hits()
        result["output_bytes"] = sum(_dir_bytes(r["out"]) for r in runs
                                     if os.path.isdir(r["out"]))
    return result


def main() -> int:
    job = json.loads(sys.argv[1])
    result = execute(job)
    with open(job["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
