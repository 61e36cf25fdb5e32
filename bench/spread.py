"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload orbit --seeds 1-10 [--trace 1]

Runs bench/run.py once per seed, one after another, and prints for each
metric the median and the quartile spread (Q3 - Q1) / median, with the
metric's bound from BENCHMARK.json and whether the spread is within a third
of it.  The last line of stdout is the JSON summary.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="bench/spread.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[section]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(done.stderr, file=sys.stderr)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              file=sys.stderr)
    summary = {}
    for name, vs in values.items():
        median = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds[name]
        summary[name] = {"median": median, "spread": spread, "bound": bound,
                         "within_third": None if bound is None else spread < bound / 3}
        print(f"{name:34s} median {median:12.6g}  spread {spread:7.4f}"
              + ("" if bound is None else f"  bound {bound}"), file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
