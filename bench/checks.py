"""Correctness check of one minimaxlab run against recorded references.

A run passes when it exited 0, wrote report.json, every level is within
`RTOL` (relative) of its reference and every verdict has its reference
status, in order. `RTOL` lets through the last-digit drift of a reordered
reduction (ROADMAP item 2 allows 1e-12) and rejects a 1e-6 change, which
is far below any wrong kernel's error.

Usage: python3 bench/checks.py REPORT.json...
prints the reference entries of the given reports, for `references.json`.
"""

import json
import math
import os
import sys

RTOL = 1e-9

LEVEL_KEYS = ("lam1_inf", "lam1", "lam_sharp", "lam2.lower", "lam2.upper",
              "lam2_radial.lam2r_inf")

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def load_references() -> dict:
    with open(REFERENCES) as f:
        return json.load(f)


def summarize(report: dict) -> dict:
    """The checked part of a report: levels present in it and verdict statuses."""
    levels = {}
    for key in LEVEL_KEYS:
        value = report["levels"]
        for part in key.split("."):
            value = value.get(part) if isinstance(value, dict) else None
        if value is not None:
            levels[key] = value
    for R, m in report["levels"]["extras"].get("gamma_r_maxima", {}).items():
        levels[f"gamma_r_maxima.{R}"] = m
    return {"levels": levels,
            "verdicts": [[v["id"], v["status"]] for v in report["verdicts"]]}


def compare(report: dict, ref: dict) -> list[str]:
    """Differences between a report and its reference entry."""
    got = summarize(report)
    problems = [f"unexpected level {k}" for k in sorted(set(got["levels"]) - set(ref["levels"]))]
    for key, want in ref["levels"].items():
        have = got["levels"].get(key)
        if have is None or not math.isclose(have, want, rel_tol=RTOL, abs_tol=0.0):
            problems.append(f"{key} = {have!r}, reference {want!r}")
    if got["verdicts"] != ref["verdicts"]:
        problems.append(f"verdicts {got['verdicts']} differ from reference {ref['verdicts']}")
    return problems


def check_run(exit_code, out_dir: str, ref: dict) -> tuple[list[str], str | None]:
    """(problems, report_hash) of one CLI run that wrote into `out_dir`."""
    if exit_code != 0:
        return [f"exit status {exit_code}"], None
    path = os.path.join(out_dir, "report.json")
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as exc:
        return [f"no readable report.json: {exc}"], None
    return compare(report, ref), report.get("report_hash")


if __name__ == "__main__":
    entries = []
    for path in sys.argv[1:]:
        with open(path) as f:
            entries.append(summarize(json.load(f)))
    print(json.dumps(entries, indent=1))
