"""One scenario run in a fresh process, as a `peanobsde run` user pays it.

Usage:
    python3 perfbench/child.py --result R.json --configs A.ini,B.ini
        --config A.ini --seed N --out DIR [--trace SPANS.json --run-id ID]
    python3 perfbench/child.py --fingerprint R.json

The package is imported from PYTHONPATH, which the benchmark points at the
checkout's src/. Set-up time is the import plus parse_config of every
config of the workload; wall time is cli.main(["run", ...]) alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time


def _blas() -> dict:
    """Vendor string and thread count of the OpenBLAS numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return {"vendor": config().decode(), "threads": threads(),
                    "library": os.path.basename(path)}
    return {"vendor": "unknown", "threads": None, "library": None}


def fingerprint() -> dict:
    import numpy
    import scipy

    import peanobsde

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": _blas(), "peanobsde_file": peanobsde.__file__}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--fingerprint")
    ap.add_argument("--result")
    ap.add_argument("--configs")
    ap.add_argument("--config")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out")
    ap.add_argument("--trace")
    ap.add_argument("--run-id", default="run")
    args = ap.parse_args()
    if args.fingerprint:
        with open(args.fingerprint, "w") as fh:
            json.dump(fingerprint(), fh)
        return 0

    started = time.perf_counter()
    import peanobsde  # noqa: F401
    from peanobsde import cli
    for path in args.configs.split(","):
        cli.parse_config(path, seed_override=args.seed)
    setup_s = time.perf_counter() - started

    rec = None
    if args.trace:
        import tracer
        rec = tracer.Recorder(args.run_id)
        originals, _ = tracer.install(rec)
        left = tracer.unwrapped_left(originals)
        if left:
            raise RuntimeError(f"unwrapped originals remain: {left}")

    started = time.perf_counter()
    code = cli.main(["run", "--config", args.config, "--seed", str(args.seed),
                     "--out", args.out])
    wall_s = time.perf_counter() - started

    result = {"setup_s": setup_s, "wall_s": wall_s,
              "peanobsde_file": peanobsde.__file__}
    if rec is not None:
        result["layers"] = rec.summary()
        rec.write_spans(args.trace)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
