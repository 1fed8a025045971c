#!/usr/bin/env python3
"""Write every bundled study (CSV plus SVG chart) into one output directory."""
import argparse
import time
from pathlib import Path

from jband_sim.experiments import EXPERIMENTS, ExperimentSpec, run_experiment_outputs
from jband_sim.output import write_study


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--no-svg", action="store_true", help="skip the SVG charts")
    args = parser.parse_args()

    out_dir = Path(args.out)
    started = time.perf_counter()
    for name in EXPERIMENTS:
        if name == "custom":
            continue
        t0 = time.perf_counter()
        list(write_study(run_experiment_outputs(ExperimentSpec(name)), out_dir / f"{name}.csv",
                         not args.no_svg))
        print(f"{name}: {time.perf_counter() - t0:.2f} s")
    print(f"total: {time.perf_counter() - started:.2f} s -> {out_dir}/")


if __name__ == "__main__":
    main()
