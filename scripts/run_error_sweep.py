#!/usr/bin/env python3
"""Sweep the four-class uniform-error family and render the charts.

Writes sweep.csv / curve.csv plus sweep.svg / curve.svg into --out-dir.
The default grid is coarse enough for a quick look; pass --fine for the
full-resolution grid (x step 0.005, b step 0.001; the whole script then
takes a few seconds).
"""

import argparse
from pathlib import Path

from trustqueue import experiments, svgchart
from trustqueue.experiments import four_class_family


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--fine", action="store_true")
    parser.add_argument("--x-max", type=float, default=0.4)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    x_step, b_step = (0.005, 0.001) if args.fine else (0.02, 0.005)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    probs, grid, lam = four_class_family()

    rows = experiments.sweep_region(probs, grid, lam, x_step=x_step, b_step=b_step,
                                    x_max=args.x_max, workers=args.workers)
    sweep_csv = out / "sweep.csv"
    experiments.write_sweep_csv(rows, sweep_csv)
    feasible_mt = [r.x for r in rows if r.ic_mt]
    feasible_bt = [r.x for r in rows if r.ic_bt]
    print(f"wrote {sweep_csv} ({len(rows)} rows)")
    if feasible_mt:
        print(f"  measured trust feasible up to x = {max(feasible_mt):g}")
    if feasible_bt:
        print(f"  blind trust feasible up to x = {max(feasible_bt):g}")
    (out / "sweep.svg").write_text(
        svgchart.sweep_chart([(r.x, r.b, r.ic_mt, r.ic_bt) for r in rows]))
    print(f"wrote {out / 'sweep.svg'}")

    curve = experiments.optimal_b_curve(probs, grid, lam, x_step=x_step,
                                        b_step=b_step, x_max=args.x_max)
    curve_csv = out / "curve.csv"
    experiments.write_curve_csv(curve, curve_csv)
    print(f"wrote {curve_csv}")
    (out / "curve.svg").write_text(svgchart.curve_chart([
        {"x": r.x, "et_mt": r.et_mt, "et_bt": r.et_bt,
         "et_fcfs": r.et_fcfs, "et_scf": r.et_scf} for r in curve]))
    print(f"wrote {out / 'curve.svg'}")


if __name__ == "__main__":
    main()
