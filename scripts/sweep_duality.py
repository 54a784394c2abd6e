#!/usr/bin/env python3
"""Sweep constant control levels against the primal value.

For the square-root driver with constant terminal data the primal value is
known in closed form, so the sweep shows the whole dual frontier: every
constant level gives an upper value, the curve dips toward the primal near
the optimal level, and the feedback policy closes the gap up to the time
discretisation error. The equation is deterministic, so the sweep runs on one
noiseless copy of it and draws nothing. Writes one CSV row per level and prints the
argmin.
"""

import argparse
import csv
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from peanobsde.control import (constant_control,  # noqa: E402
                               feedback_control, solve_controlled)
from peanobsde.engine import Deterministic, TimeGrid  # noqa: E402
from peanobsde.solver import solve_backward_euler, spec_sqrt  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--terminal", type=float, default=1.0)
    ap.add_argument("--steps", type=int, default=400)
    ap.add_argument("--levels", default="0.20,0.25,0.30,0.35,0.40,0.45,"
                                         "0.50,0.55,0.60,0.70,0.85,1.00")
    ap.add_argument("--out", default="out/sweeps/duality_frontier.csv")
    args = ap.parse_args()

    grid = TimeGrid(horizon=1.0, steps=args.steps)
    ens = Deterministic(grid)
    xi = np.full(1, args.terminal)
    spec = spec_sqrt()

    primal = solve_backward_euler(spec, xi, ens)
    exact = (math.sqrt(args.terminal) + grid.horizon / 2.0) ** 2

    levels = [float(tok) for tok in args.levels.split(",") if tok.strip()]
    rows = []
    for q in levels:
        ctrl = constant_control(grid, paths=1, value=q)
        upper = solve_controlled(spec, ctrl, xi, ens)
        gap = float(upper.y[0].mean() - primal.y[0].mean())
        rows.append((q, float(upper.y[0].mean()), gap))
        print(f"q = {q:5.2f}  upper = {rows[-1][1]:.8f}  gap = {gap:+.2e}")

    fb = feedback_control(spec, primal)
    fb_upper = solve_controlled(spec, fb, xi, ens)
    fb_gap = float(fb_upper.y[0].mean() - primal.y[0].mean())
    print(f"feedback     upper = {fb_upper.y[0].mean():.8f}  "
          f"gap = {fb_gap:+.2e}")
    print(f"primal {primal.y[0].mean():.8f}  closed form {exact:.8f}")

    best_q, _, best_gap = min(rows, key=lambda row: row[2])
    print(f"frontier minimum at q = {best_q} (gap_min {best_gap:+.2e})")

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["control_level", "upper_value", "gap"])
        for q, upper, gap in rows:
            writer.writerow([repr(q), repr(upper), repr(gap)])
        writer.writerow(["feedback", repr(float(fb_upper.y[0].mean())),
                         repr(fb_gap)])
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
