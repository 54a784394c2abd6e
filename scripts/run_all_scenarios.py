#!/usr/bin/env python3
"""Run every shipped scenario config and print a one-line verdict summary.

Each summary line carries the SHA-256 of every CSV the scenario wrote, so
two checkouts can be compared byte for byte by diffing their summaries.
Exits 0 only if every scenario run returned 0. Pass --configs to point at
a different directory of INI files, --out to redirect all outputs.
"""

import argparse
import glob
import hashlib
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from peanobsde.cli import main as cli_main, parse_config  # noqa: E402


def csv_hashes(path, out_dir):
    """'name=sha256' for each CSV of the run's output directory."""
    cfg = parse_config(path, out_override=out_dir)
    hashes = []
    for csv_path in sorted(glob.glob(os.path.join(cfg.out_dir, "*.csv"))):
        with open(csv_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        hashes.append(f"{os.path.basename(csv_path)}={digest}")
    return hashes


def run_one(path, out_root):
    name = os.path.splitext(os.path.basename(path))[0]
    out_dir = os.path.join(out_root, name) if out_root else None
    argv = ["run", "--config", path]
    if out_dir:
        argv += ["--out", out_dir]
    started = time.perf_counter()
    code = cli_main(argv)
    wall = time.perf_counter() - started
    print(f"({wall:.1f}s)")
    # exit 0 and 1 write the tables; every other exit stops before them
    hashes = csv_hashes(path, out_dir) if code in (0, 1) else []
    return name, code, hashes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--configs",
                    default=os.path.join(HERE, "..", "configs"))
    ap.add_argument("--out", default=None,
                    help="root directory for all scenario outputs")
    args = ap.parse_args()

    paths = sorted(glob.glob(os.path.join(args.configs, "*.ini")))
    if not paths:
        print(f"no configs under {args.configs}", file=sys.stderr)
        return 2

    results = []
    for path in paths:
        print(f"=== {os.path.basename(path)}")
        results.append(run_one(path, args.out))
        print()

    width = max(len(name) for name, _, _ in results)
    print("summary:")
    for name, code, hashes in results:
        tag = "ok" if code == 0 else f"exit {code}"
        print(f"  {name:<{width}}  {tag:>7}  {' '.join(hashes)}".rstrip())
    return 0 if all(code == 0 for _, code, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
