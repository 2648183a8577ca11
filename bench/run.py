"""minimaxlab benchmark: real `minimaxlab run` invocations in three workloads.

Usage (from the repository root):

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: executions run back to back,
one at a time, each in a fresh process (bench/worker.py), until the next one
would end after `--seconds`; at least two run, so every run also checks that
separate processes give the same report_hash. `--seed` goes to every CLI run.

With `--trace 0` the last stdout line holds the end-to-end metrics (medians
over the run's executions). With `--trace 1` executions come in pairs, one
untraced and one traced (bench/spans.py); the line holds the per-layer
metrics, medians over the traced executions, and `trace.overhead_s`, traced
minus untraced wall time. Every CLI run is checked against
bench/references.json; one that fails the check, or whose report_hash
differs from the other executions', counts in `failed`.
"""

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
DESK_CFG = "demos/desk.cfg"

# Each workload is a list of CLI invocations, given as config overrides of
# the desk config; one execution runs them all in one process.
LEVELS = ("experiment=levels",)
WORKLOADS = {
    # ROADMAP's headline number; every layer, dominated by radial shooting.
    "desk": [()],
    # W = 0 and a deepening well on the desk grid; the shooting cache serves
    # three of four shootings, so path maxima and descent dominate.
    "well-scan": [LEVELS + ("w_family=zero",), LEVELS + ("w_c=0.25",),
                  LEVELS + ("w_c=0.5",), LEVELS + ("w_c=1.0",)],
    # 65^3 nodes: per-element kernel cost and memory outweigh call overhead.
    "n3-levels": [LEVELS + ("dim=3", "box_l=8", "spacing_h=0.25",
                            "theta_samples=128", "y_sweep=4,5,6")],
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 3
CHILD_TIMEOUT = 150.0
RUN_LIMIT = 165.0


class Execution:
    """One worker process: its timings, resource usage and CLI runs."""

    def __init__(self, job: dict, t_spawn: float, exit_code: int, rusage):
        self.job = job
        self.exit_code = exit_code
        self.rusage = rusage
        self.result = None
        if exit_code == 0:
            with open(job["result"]) as f:
                self.result = json.load(f)
        r = self.result or {}
        self.setup_s = r["t_setup"] - t_spawn if r.get("t_setup") else None
        self.wall_s = r["t_end"] - t_spawn if r else time.monotonic() - t_spawn
        self.peak_rss_mb = rusage.ru_maxrss / 1024.0  # ru_maxrss is in KiB

    def runs(self) -> list[dict]:
        """One record per invocation of the job; missing ones have no exit."""
        done = (self.result or {}).get("runs", [])
        missing = [{"exit": None, "error": f"worker exit {self.exit_code}", "out": None}]
        return done + missing * (len(self.job["invocations"]) - len(done))


def spawn(job: dict, log_path: str, timeout: float) -> Execution:
    """Run the worker on `job`, reaping it with wait4 for its resource usage."""
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, WORKER, json.dumps(job)],
                                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        deadline = t_spawn + timeout
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Execution(job, t_spawn, proc.returncode, rusage)


def make_job(workload: str, seed: int, work_dir: str, tag: str, trace: bool, probe: bool) -> dict:
    invocations = []
    for i, overrides in enumerate(WORKLOADS[workload]):
        argv = ["run", DESK_CFG, "--seed", str(seed), "--out", os.path.join(work_dir, f"{tag}-{i}")]
        for item in overrides:
            argv += ["--override", item]
        invocations.append(argv)
    return {"invocations": invocations, "result": os.path.join(work_dir, f"{tag}.json"),
            "trace": trace, "probe": probe}


def check(executions: list[Execution], refs: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every CLI run of the executions.

    A run fails the correctness check or, when its report_hash differs from
    the most common hash of the same invocation, the reproducibility check.
    """
    attempted, problems = 0, []
    hashes = collections.defaultdict(list)
    failed_runs = set()
    for n, ex in enumerate(executions):
        for i, rec in enumerate(ex.runs()):
            attempted += 1
            if rec["exit"] is None:
                found, digest = [rec["error"] or "no exit status"], None
            else:
                found, digest = checks.check_run(rec["exit"], rec["out"], refs[i])
            if found:
                failed_runs.add((n, i))
                problems += [f"execution {n} run {i}: {p}" for p in found]
            if digest:
                hashes[i].append((n, digest))
    for i, seen in hashes.items():
        common = collections.Counter(d for _, d in seen).most_common(1)[0][0]
        for n, digest in seen:
            if digest != common:
                failed_runs.add((n, i))
                problems.append(f"execution {n} run {i}: report_hash {digest} "
                                f"differs from {common}")
    return attempted, len(failed_runs), problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work_dir: str):
    t_start = time.monotonic()

    def elapsed():
        return time.monotonic() - t_start

    def launch(tag, traced, probe):
        job = make_job(workload, seed, work_dir, tag, traced, probe)
        timeout = max(1.0, min(CHILD_TIMEOUT, RUN_LIMIT - elapsed()))
        return spawn(job, os.path.join(work_dir, f"{tag}.log"), timeout)

    # The probes also warm the file cache before the first timed execution.
    setup_samples = []
    for k in range(SETUP_PROBES):
        ex = launch(f"probe{k}", False, True)
        if ex.setup_s is None:
            raise RuntimeError(f"set-up probe failed, see {work_dir}/probe{k}.log")
        setup_samples.append(ex.setup_s)

    executions: list[Execution] = []
    group = 2 if trace else 1  # traced runs come in (untraced, traced) pairs
    longest = 0.0
    while True:
        n = len(executions)
        ex = launch(f"ex{n}", trace and n % 2 == 1, False)
        executions.append(ex)
        longest = max(longest, ex.wall_s)
        if len(executions) % group:
            continue
        next_end = elapsed() + group * longest
        if (len(executions) >= 2 and next_end > seconds) or next_end > RUN_LIMIT:
            break
    return setup_samples, executions


def end_to_end_metrics(setup_samples, executions) -> dict:
    setup_samples = setup_samples + [ex.setup_s for ex in executions if ex.setup_s is not None]
    return {
        "wall_s": statistics.median(ex.wall_s for ex in executions),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(ex.peak_rss_mb for ex in executions),
    }


def per_layer_metrics(executions) -> dict:
    per_pair = []
    for plain, traced in zip(executions[::2], executions[1::2]):
        r = traced.result
        if r is None:
            continue
        ru = plain.rusage
        per_pair.append(spans.layer_metrics(r["spans"], {
            "cache_hits": r["cache_hits"],
            "overlap_warnings": r["overlap_warnings"],
            "output_bytes": r["output_bytes"],
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "minor_faults": ru.ru_minflt,
            "overhead_s": traced.wall_s - plain.wall_s,
        }))
    if not per_pair:
        raise RuntimeError("no traced execution completed")
    return spans.median_metrics(per_pair)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("src/minimaxlab/cli.py", DESK_CFG):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found; run from a minimaxlab checkout", file=sys.stderr)
            return 2
    refs = checks.load_references()[args.workload]
    work_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        setup_samples, executions = run_workload(args.workload, args.seed, args.seconds,
                                                 bool(args.trace), work_dir)
        attempted, failed, problems = check(executions, refs)
        if args.trace:
            values = per_layer_metrics(executions)
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
        else:
            values = end_to_end_metrics(setup_samples, executions)
            units = dict(END_TO_END)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    if failed:
        print(f"logs and reports kept in {work_dir}", file=sys.stderr)
    else:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"{args.workload}: {len(executions)} executions, {attempted} CLI runs, {failed} failed")
    print("  executions (wall_s/cpu_s): " + " ".join(
        f"{ex.wall_s:.3f}/{ex.rusage.ru_utime + ex.rusage.ru_stime:.3f}" for ex in executions))
    for name, value in values.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
