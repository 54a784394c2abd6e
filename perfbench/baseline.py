"""Collect benchmark results into perfbench/baseline.json.

Usage, from the root of a checkout, after runs of perfbench/run.py:
    python3 perfbench/baseline.py

Reads every .bench_work/results/*.json and writes, per workload: each
end-to-end metric's median, quartiles and spread (quartile distance over
median) across the seeds run; the per-layer metrics of each traced run; the
CSV SHA-256 of every scenario at every seed; and the machine fingerprint.
Runs whose outputs failed their checks are listed and left out.
"""

from __future__ import annotations

import json
from pathlib import Path

from run import stats

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".bench_work" / "results"


def spread(values: list) -> dict:
    st = stats(values)
    st["spread"] = (st["q3"] - st["q1"]) / st["median"] if st["median"] \
        else 0.0
    return st


def main() -> int:
    runs = [json.loads(p.read_text()) for p in sorted(RESULTS.glob("*.json"))]
    if not runs:
        raise SystemExit(f"no results in {RESULTS}")
    fingerprint = dict(runs[0]["fingerprint"])
    fingerprint.pop("peanobsde_file", None)
    workloads = {}
    for run in sorted(runs, key=lambda r: (r["workload"], r["seed"])):
        w = workloads.setdefault(run["workload"], {
            "seeds": [], "incorrect": [], "end_to_end": {},
            "per_layer": {}, "csv_sha256": {}})
        if not run["correct"]:
            w["incorrect"].append({"seed": run["seed"], "trace": run["trace"]})
            continue
        values = {k: v["value"] for k, v in run["metrics"].items()}
        if run["trace"]:
            w["per_layer"][str(run["seed"])] = values
            continue
        w["seeds"].append(run["seed"])
        w["csv_sha256"][str(run["seed"])] = run["csv_sha256"]
        for name, value in values.items():
            w["end_to_end"].setdefault(name, []).append(value)
    for w in workloads.values():
        w["end_to_end"] = {k: spread(v) for k, v in w["end_to_end"].items()}
    out = {"fingerprint": fingerprint,
           "seconds": sorted({r["seconds"] for r in runs}),
           "workloads": workloads}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1,
                                                   sort_keys=True) + "\n")
    for name, w in workloads.items():
        for metric, st in w["end_to_end"].items():
            print(f"{name:24s} {metric:18s} median {st['median']:.6g} "
                  f"spread {st['spread']:.4f} n={st['n']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
