#!/usr/bin/env python3
"""Run the stochastic scenarios over a range of seeds and print one row each.

Usage:
    python3 scripts/seed_audit.py --seeds 0:39 [--jobs 2]

--seeds A:B runs seeds A through B inclusive. Each (scenario, seed) run goes
through `cli.main` in a worker process, writing into a temporary directory.
Standard output gets one tab-separated row per run, in scenario then seed
order:

    scenario  seed  exit  failing  value  tolerance  csv

`failing` lists the names of the failed verdicts ("-" if none). `value` and
`tolerance` are those of the first failed verdict, or of the scenario's
stochastic verdict (WATCHED below) when all pass. `csv` holds
name=SHA-256 per CSV written. A run that stops before writing its report
(exit 2, 3 or 4) prints its last error line in place of the verdict
columns. Wall times go to standard error, so the rows of two checkouts
can be compared with a single diff. Exits 0 only if every run exited 0.
"""

import argparse
import concurrent.futures
import contextlib
import glob
import hashlib
import io
import json
import multiprocessing
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
CONFIGS = os.path.join(HERE, "..", "configs")

# scenario -> prefix of the verdict its row reports when every verdict passes
WATCHED = {
    "transform_crosscheck": "stochastic interior discrepancy",
    "uniqueness_convergence": "stochastic Y0",
    "lower_bound": "lower bound holds",
}


def audit_one(scenario: str, seed: int) -> tuple:
    """(row, wall seconds) of one scenario run at one seed."""
    from peanobsde.cli import main

    config = os.path.join(CONFIGS, f"{scenario}.ini")
    with tempfile.TemporaryDirectory(prefix="seed_audit_") as out:
        err = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["run", "--config", config, "--seed", str(seed),
                         "--out", out])
        wall = time.perf_counter() - started
        cols = [scenario, str(seed), str(code)]
        report = os.path.join(out, "report.json")
        if not os.path.isfile(report):
            lines = err.getvalue().strip().splitlines()
            cols.append(lines[-1] if lines else "-")
            return "\t".join(cols), wall
        with open(report) as fh:
            verdicts = json.load(fh)["verdicts"]
        failed = [v for v in verdicts if not v["passed"]]
        shown = failed[0] if failed else next(
            v for v in verdicts if v["name"].startswith(WATCHED[scenario]))
        hashes = []
        for path in sorted(glob.glob(os.path.join(out, "*.csv"))):
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            hashes.append(f"{os.path.basename(path)}={digest}")
    cols += ["; ".join(v["name"] for v in failed) or "-",
             repr(shown["value"]), repr(shown["tolerance"]), " ".join(hashes)]
    return "\t".join(cols), wall


def parse_seeds(text: str) -> range:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}")
    lo, hi = int(lo), int(hi)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(lo, hi + 1)


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Audit the stochastic scenarios over a seed range.")
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="A:B, seeds A through B inclusive")
    ap.add_argument("--jobs", type=int, default=2,
                    help="worker processes (default 2, at most the CPU count)")
    args = ap.parse_args()
    if args.jobs < 1:
        ap.error(f"--jobs must be >= 1, got {args.jobs}")
    jobs = min(args.jobs, os.cpu_count() or 1)

    tasks = [(scenario, seed) for scenario in WATCHED for seed in args.seeds]
    all_ok = True
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs,
                                                mp_context=ctx) as pool:
        futures = [pool.submit(audit_one, *task) for task in tasks]
        for (scenario, seed), fut in zip(tasks, futures):
            row, wall = fut.result()
            all_ok = all_ok and row.split("\t")[2] == "0"
            print(row, flush=True)
            print(f"{scenario} {seed}: {wall:.2f}s", file=sys.stderr,
                  flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
