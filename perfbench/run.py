"""Scenario benchmark for peanobsde: a closed loop of `peanobsde run` users.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs each scenario of the workload in its own fresh child
process, one child at a time, and repeats the workload until S seconds have
passed (at least twice, so reruns can be compared). Every child's output is
checked: exit code 0, every verdict in report.json passed, and CSV SHA-256
identical to the first repetition at that seed.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics of the traced ones. The
last line of standard output is one JSON object; the full record (samples,
quartiles, per-scenario CSV hashes, machine fingerprint) is written to
.bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = Path(".bench_work")
HARD_LIMIT_S = 170.0  # the whole benchmark must end within 180 s

# Each workload runs shipped configs with only the seed overridden.
WORKLOADS = {
    # M = 1e4 paths, up to 200 steps: regression fits and implicit
    # fixed-point loops, no conjugate or quadrature work
    "mc_regression": ("transform_crosscheck", "uniqueness_convergence"),
    # 2-path deterministic mode, zero regressions: scalar quad, f_star and
    # conjugate calls; four short solves, so import is a large share
    "deterministic_conjugate": ("duality_frontier", "multiplicity_zoo",
                                "ez_utility", "assumption_audit"),
    # the pathwise lower bound: degree-4 regressions with leverage on every
    # fit, Girsanov weights and the monotone-transform table
    "certificate": ("lower_bound",),
}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cli_wall_s": "s", "peak_rss_mb": "MB",
    "verdict_pass_frac": "fraction", "rerun_match_frac": "fraction",
}

# per-layer metric -> unit; "_s" values are self time (span time minus the
# child spans it encloses), summed over the workload's scenarios
PER_LAYER = {
    "cli.parse_s": "s", "cli.self_s": "s", "cli.io_s": "s",
    "cli.io_bytes": "bytes",
    "engine.simulate_s": "s", "engine.regress_s": "s",
    "engine.regress_calls": "count", "engine.regress_rows": "count",
    "engine.regress_design_bytes": "bytes", "engine.girsanov_s": "s",
    "solver.self_s": "s", "solver.solves": "count", "solver.ode_s": "s",
    "solver.audit_s": "s", "solver.inner_iters_max": "count",
    "solver.floor_hits": "count", "solver.degraded_regressions": "count",
    "control.f_star_s": "s", "control.f_star_calls": "count",
    "control.controlled_s": "s", "control.duality_s": "s",
    "control.certificate_s": "s", "control.quad_calls": "count",
    "transform.self_s": "s", "transform.driver_s": "s",
    "transform.driver_calls": "count", "transform.theta_s": "s",
    "transform.quad_calls": "count",
    "peano.self_s": "s", "peano.phi_calls": "count",
    "peano.quad_calls": "count",
    "trace.overhead_s": "s",
}
MAX_METRICS = {"solver.inner_iters_max"}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list, deadline: float, log: Path):
    """Run the child script; returns (exit code, wall s, max RSS MB)."""
    with open(log, "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD)] + args,
                                cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        ready = []
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select(
                    [fd], [], [], max(deadline - time.monotonic(), 0.0))
            finally:
                os.close(fd)
            elapsed = time.perf_counter() - started
        finally:
            if not ready:  # past the deadline, or the benchmark is stopping
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def csv_hashes(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


def run_scenario(workload: str, scenario: str, config: str, configs: list,
                 seed: int, rep: int, traced: bool, deadline: float) -> dict:
    """One child process running one config; returns its record.

    `configs` are all of the workload's configs, which the child parses as
    part of set-up.
    """
    base = WORK / workload
    out = base / scenario
    result = base / f"{scenario}.result.json"
    shutil.rmtree(ROOT / out, ignore_errors=True)
    (ROOT / result).unlink(missing_ok=True)
    (ROOT / base).mkdir(parents=True, exist_ok=True)
    args = ["--result", str(result), "--configs", ",".join(configs),
            "--config", config, "--seed", str(seed), "--out", str(out)]
    if traced:
        args += ["--trace", str(base / f"{scenario}.spans.json"),
                 "--run-id", f"{workload}/{scenario}/seed{seed}/rep{rep}"]
    code, cli_wall, rss = spawn(args, deadline,
                                ROOT / base / f"{scenario}.stderr.txt")
    rec = {"scenario": scenario, "rep": rep, "traced": traced,
           "exit_code": code, "cli_wall_s": cli_wall, "rss_mb": rss,
           "verdicts": None, "verdicts_failed": None, "hashes": None,
           "io_bytes": 0}
    report = ROOT / out / "report.json"
    if report.is_file():
        verdicts = json.loads(report.read_text())["verdicts"]
        rec["verdicts"] = len(verdicts)
        rec["verdicts_failed"] = sum(not v["passed"] for v in verdicts)
        rec["hashes"] = csv_hashes(ROOT / out)
        rec["io_bytes"] = sum(p.stat().st_size for p in (ROOT / out).iterdir())
    if (ROOT / result).is_file():
        child = json.loads((ROOT / result).read_text())
        src = str(ROOT / "src") + os.sep
        if not child["peanobsde_file"].startswith(src):
            raise RuntimeError(f"child imported {child['peanobsde_file']}, "
                               f"not the checkout's {src}")
        rec.update(setup_s=child["setup_s"], wall_s=child["wall_s"],
                   layers=child.get("layers"))
    else:
        log = (ROOT / base / f"{scenario}.stderr.txt").read_text()
        print(f"{scenario}: exit {code}\n{log[-2000:]}", file=sys.stderr)
    return rec


def check(records: list) -> None:
    """Mark each record ok or not; a failed run counts all its verdicts.

    A run with no readable report counts as many failed verdicts as the
    scenario's successful runs report (1 if none did).
    """
    expected, first = {}, {}
    for r in records:
        if r["verdicts"] is not None:
            expected[r["scenario"]] = max(expected.get(r["scenario"], 0),
                                          r["verdicts"])
    for r in records:
        if r["verdicts"] is None:
            r["verdicts"] = expected.get(r["scenario"], 1)
            r["verdicts_failed"] = r["verdicts"]
        if r["hashes"] is not None:
            first.setdefault(r["scenario"], r["hashes"])
        r["rerun_match"] = (r["hashes"] is not None
                            and r["hashes"] == first[r["scenario"]])
        r["ok"] = (r["exit_code"] == 0 and r["verdicts_failed"] == 0
                   and r["rerun_match"])


def stats(values: list) -> dict:
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 \
        else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def per_scenario(records: list, key: str) -> dict:
    out = {}
    for r in records:
        if r.get(key) is not None:
            out.setdefault(r["scenario"], []).append(r[key])
    return {s: stats(v) for s, v in out.items()}


def end_to_end(records: list) -> tuple:
    plain = [r for r in records if not r["traced"]]
    walls = per_scenario(plain, "wall_s")
    cli_walls = per_scenario(plain, "cli_wall_s")
    setups = [r["setup_s"] for r in plain if "setup_s" in r]
    verdicts = sum(r["verdicts"] for r in plain)
    reruns = [r for r in plain if r["rep"] > 0]
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": sum(s["median"] for s in walls.values()),
        "cli_wall_s": sum(s["median"] for s in cli_walls.values()),
        "peak_rss_mb": max(r["rss_mb"] for r in plain),
        "verdict_pass_frac":
            1.0 - sum(r["verdicts_failed"] for r in plain) / verdicts,
        "rerun_match_frac":
            sum(r["rerun_match"] for r in reruns) / max(len(reruns), 1),
    }
    detail = {"wall_s": walls, "cli_wall_s": cli_walls,
              "setup_s": stats(setups) if setups else None}
    return metrics, detail


def layer_values(rec: dict) -> dict:
    """Flat per-layer metrics of one traced child."""
    lay = rec["layers"]
    s, calls, tot = lay["self_s"], lay["calls"], lay["totals"]
    quad = lay["counts"].get("quad_calls", {})
    phi = lay["counts"].get("phi_calls", {})

    def quad_in(layer):
        return sum(v for k, v in quad.items()
                   if k == layer or k.startswith(layer + "."))

    return {
        "cli.parse_s": s["cli.parse"], "cli.self_s": s["cli.run"],
        "cli.io_s": tot.get("io_s", 0.0), "cli.io_bytes": rec["io_bytes"],
        "engine.simulate_s": s["engine.simulate"],
        "engine.regress_s": s["engine.regress"],
        "engine.regress_calls": calls["engine.regress"],
        "engine.regress_rows": tot.get("regress_rows", 0),
        "engine.regress_design_bytes": tot.get("regress_design_bytes", 0),
        "engine.girsanov_s": s["engine.girsanov"],
        "solver.self_s": s["solver.solve"],
        "solver.solves": calls["solver.solve"],
        "solver.ode_s": s["solver.ode"], "solver.audit_s": s["solver.audit"],
        "solver.inner_iters_max": lay["maxima"].get("inner_iters_max", 0),
        "solver.floor_hits": tot.get("floor_hits", 0),
        "solver.degraded_regressions": tot.get("degraded_regressions", 0),
        "control.f_star_s": s["control.f_star"],
        "control.f_star_calls": calls["control.f_star"],
        "control.controlled_s": s["control.controlled"],
        "control.duality_s": s["control.duality"],
        "control.certificate_s": s["control.certificate"],
        "control.quad_calls": quad_in("control"),
        "transform.self_s": s["transform.solve"],
        "transform.driver_s": s["transform.driver"],
        "transform.driver_calls": calls["transform.driver"],
        "transform.theta_s": s["transform.theta"],
        "transform.quad_calls": quad_in("transform"),
        "peano.self_s": s["peano"], "peano.phi_calls": sum(phi.values()),
        "peano.quad_calls": quad_in("peano"),
    }


def per_layer(records: list) -> tuple:
    """Median over traced repetitions of the workload-summed layer values;
    counts are those of the first repetition, checked to repeat exactly."""
    by_rep = {}
    for r in records:
        if r["traced"] and r.get("layers"):
            rep = by_rep.setdefault(r["rep"], {})
            for name, v in layer_values(r).items():
                rep[name] = max(rep.get(name, v), v) if name in MAX_METRICS \
                    else rep.get(name, 0) + v
    # with no traced child finished, report zeros; the run is incorrect
    reps = [by_rep[k] for k in sorted(by_rep)] or [dict.fromkeys(PER_LAYER, 0)]
    metrics, repeats = {}, True
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            continue
        values = [rep[name] for rep in reps]
        if unit == "count":
            metrics[name] = values[0]
            repeats = repeats and len(set(values)) == 1
        else:
            metrics[name] = statistics.median(values)
    traced = per_scenario([r for r in records if r["traced"]], "wall_s")
    plain = per_scenario([r for r in records if not r["traced"]], "wall_s")
    metrics["trace.overhead_s"] = (sum(s["median"] for s in traced.values())
                                   - sum(s["median"] for s in plain.values()))
    return metrics, {"counts_repeat": repeats, "traced_wall_s": traced,
                     "untraced_wall_s": plain, "per_rep": reps}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        ap.error("--seed must be an unsigned 64-bit value")
    return args


def main(argv=None) -> int:
    deadline = time.monotonic() + HARD_LIMIT_S
    args = parse_args(argv)
    scenarios = WORKLOADS[args.workload]
    missing = [p for p in ["src/peanobsde/__init__.py"]
               + [f"configs/{s}.ini" for s in scenarios]
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a peanobsde checkout, missing: {missing}", file=sys.stderr)
        return 2

    # the fingerprint child also compiles the package's bytecode, which a
    # user pays once per install, not once per run
    (ROOT / WORK).mkdir(exist_ok=True)
    fp_path = WORK / "fingerprint.json"
    code, _, _ = spawn(["--fingerprint", str(fp_path)], deadline,
                       ROOT / WORK / "fingerprint.stderr.txt")
    if code != 0:
        print((ROOT / WORK / "fingerprint.stderr.txt").read_text(),
              file=sys.stderr)
        return 2
    fingerprint = json.loads((ROOT / fp_path).read_text())

    configs = [f"configs/{s}.ini" for s in scenarios]
    passes = (False, True) if args.trace else (False,)
    records, rep, last = [], 0, 0.0
    started = time.perf_counter()
    # a repetition starts if it should end before `seconds` plus half a
    # repetition; at least two run, so that reruns can be compared
    while rep < 2 or time.perf_counter() - started + last / 2 < args.seconds:
        if time.monotonic() + last > deadline:
            break
        rep_started = time.perf_counter()
        for traced in passes:
            for scenario, config in zip(scenarios, configs):
                records.append(run_scenario(
                    args.workload, scenario, config, configs, args.seed, rep,
                    traced, deadline))
        last = time.perf_counter() - rep_started
        rep += 1
    measured = time.perf_counter() - started
    check(records)

    if args.trace:
        metrics, detail = per_layer(records)
        units = PER_LAYER
    else:
        metrics, detail = end_to_end(records)
        units = END_TO_END
    failed = sum(not r["ok"] for r in records)
    correct = failed == 0

    hashes = {}
    for r in records:
        hashes.setdefault(r["scenario"], r["hashes"])
    full = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds,
            "measured_s": measured, "repetitions": rep,
            "fingerprint": fingerprint, "correct": correct,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
            "detail": detail, "csv_sha256": hashes, "records": [
                {k: v for k, v in r.items() if k != "layers"}
                for r in records],
            "notes": {"engine.regress_rows": "computed: paths x basis "
                      "columns per conditional_expectation call, summed",
                      "engine.regress_design_bytes": "computed: 8 bytes x "
                      "rows x columns of each design matrix, summed; no "
                      "peak rate is measured, so no roofline ratio"}}
    results = ROOT / WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(full, indent=1, sort_keys=True))

    print(f"{args.workload} seed {args.seed}: {rep} repetitions of "
          f"{len(scenarios)} scenarios in {measured:.1f} s, "
          f"{failed} of {len(records)} runs failed")
    for key in ("wall_s", "cli_wall_s", "traced_wall_s", "untraced_wall_s"):
        for scenario, st in detail.get(key, {}).items():
            print(f"  {key} {scenario}: median {st['median']:.4f} s, "
                  f"quartiles {st['q1']:.4f}-{st['q3']:.4f}, n={st['n']}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed,
                      "metrics": full["metrics"]}))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds through spawn(), which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
