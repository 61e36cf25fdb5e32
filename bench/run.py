"""ar-iet benchmark: one workload, closed loop, exactness-gated.

    python3 bench/run.py --workload verify|orbit|language --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; ar_iet is imported from its src/.
One client in one process and one thread runs the workload's job list back
to back, pass after pass, until S seconds have gone, and the gate checks
every job's result after each pass.  The last line of stdout is a JSON
object with keys correct, attempted, failed and metrics:

* --trace 0: the end-to-end metrics, untraced (see BENCHMARK.json);
* --trace 1: the per-layer metrics of traced passes, alternated with
  untraced ones to give trace_overhead.  The spans of the traced set-up and
  of the first traced pass are written to bench/out/.

End-to-end times are in reference seconds.  On a shared 2-vCPU virtual
machine the CPU's speed drifted by a third within minutes, for every process
alike (one job took 0.31 s to 0.66 s with no steal time), so a fixed
calibration loop that never touches ar_iet runs before the first job and
after each one, and a job's seconds are scaled by REFERENCE_S over the mean
of the two calibrations around it.  A reference second is a second on a
machine that runs the loop in REFERENCE_S.  The per-layer metrics report raw
seconds, and the loop's own median time as calibration_s.

Failed jobs are named on stderr.  `--record` rewrites the digests that the
gate compares at the default seed (bench/expected.json).
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
OUT = BENCH / "out"
SETUP_SAMPLES = 9
REFERENCE_S = 0.03


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py")
    p.add_argument("--workload", required=True, choices=("verify", "orbit", "language"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print the set-up's reference seconds, and exit")
    p.add_argument("--record", action="store_true",
                   help="record the default seed's output digests")
    return p.parse_args(argv)


def calibrate() -> float:
    """Seconds for a fixed loop of Fraction arithmetic, tuple allocation,
    sorting and dict counting (about 40 ms), the mix the jobs spend on."""
    from fractions import Fraction

    start = time.perf_counter()
    items, x = [], Fraction(0)
    for i in range(1, 2000):
        step = Fraction(i * 7919 % 1009, 1009)
        items.append((x + step, x, str(i % 9)))
        x = (x + step) % 17
    items.sort()
    seen = {}
    for left, right, letter in items:
        if left < right:
            seen[letter] = seen.get(letter, 0) + 1
    return time.perf_counter() - start


def import_program():
    """Import ar_iet from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ar_iet" / "__init__.py").is_file():
        raise SystemExit(f"bench: no ar_iet sources under {src}")
    sys.path.insert(0, str(src))
    import ar_iet

    if Path(ar_iet.__file__).resolve().parent != (src / "ar_iet").resolve():
        raise SystemExit(f"bench: imported ar_iet from {ar_iet.__file__}, not {src}")
    import workloads

    return workloads


def setup(args):
    """Set-up in a fresh process: import, input generation, system building.
    Returns the job list and the set-up's reference seconds."""
    start = time.perf_counter()
    workloads = import_program()
    jobs = workloads.build_jobs(args.workload, args.seed, args.size)
    seconds = time.perf_counter() - start
    speed = (calibrate() + calibrate()) / 2
    return workloads, jobs, seconds * REFERENCE_S / speed


def setup_samples(args, first: float) -> list[float]:
    import subprocess

    samples = [first]
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
            "--size", args.size, "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


class Pass:
    """One run of every job: raw and reference seconds, results, errors."""

    def __init__(self, jobs, tracer=None):
        self.seconds, self.scaled, self.calibrations = [], [], [calibrate()]
        self.results, self.errors = [], []
        for job in jobs:
            if tracer is not None:
                tracer.job = job.id
            start = time.perf_counter()
            try:
                result, error = job.run(), None
            except Exception as e:  # a failing job is counted, and the pass goes on
                result, error = None, f"{type(e).__name__}: {e}"
            seconds = time.perf_counter() - start
            self.calibrations.append(calibrate())
            speed = (self.calibrations[-2] + self.calibrations[-1]) / 2
            self.seconds.append(seconds)
            self.scaled.append(seconds * REFERENCE_S / speed)
            self.results.append(result)
            self.errors.append(error)


def check_pass(workloads, jobs, done: Pass, expected) -> list[str]:
    """Named failures of one pass, one per failed job."""
    failures = []
    for job, result, error in zip(jobs, done.results, done.errors):
        problems = [error] if error else workloads.gate(job, result, expected.get(job.id))
        if problems:
            failures.append(f"{job.id}: {'; '.join(problems)}")
    return failures


def load_expected(workload: str, seed: int, size: str, default_seed: int) -> dict:
    if seed != default_seed or not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text()).get(f"{workload}/{size}", {})


def record_expected(workloads, args, jobs) -> None:
    done = Pass(jobs)
    failures = check_pass(workloads, jobs, done, {})
    if failures:
        raise SystemExit("bench: not recording, oracles failed:\n" + "\n".join(failures))
    table = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    table[f"{args.workload}/{args.size}"] = {
        job.id: job.digest(result) for job, result in zip(jobs, done.results)
    }
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(workloads, args, jobs, expected, setup_s):
    import resource

    passes, failures = [], []
    start = time.perf_counter()
    while True:
        done = Pass(jobs)
        failures += check_pass(workloads, jobs, done, expected)
        passes.append(done.scaled)
        if time.perf_counter() - start >= args.seconds:
            break
    attempted = len(jobs) * len(passes)
    # each job's time is its median over the passes, which damps the noise
    # of the single calibration pair around each run of a job
    per_job = [statistics.median(times) for times in zip(*passes)]
    metrics = {
        "wall_s": metric(statistics.median(sum(p) for p in passes), "s"),
        "job_p50_s": metric(statistics.median(per_job), "s"),
        "setup_s": metric(statistics.median(setup_samples(args, setup_s)), "s"),
        "peak_rss_kib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "KiB"),
        "success_rate": metric(1 - len(failures) / attempted, "ratio"),
    }
    return failures, attempted, metrics


SELF_TIMES = ("towers.build", "towers.partition", "towers.adjacency", "towers.components",
              "iet.orbit", "iet.circle", "iet.build", "induction.iterate", "induction.verify",
              "words.stage", "words.factor", "analysis.preimage", "analysis.frequency",
              "gasket", "cli")
COUNTS = ("towers.levels", "iet.steps", "iet.circle.points", "induction.stages",
          "induction.pushes", "words.letters", "words.factor_windows",
          "analysis.preimage.refine_steps", "analysis.preimage.pieces", "gasket.calls")


def traced_run(workloads, args, jobs, expected, tracer, setup_spans, setup_counts):
    from collections import Counter

    from tracer import LAYERS, layer_of, median_counter, self_times

    plain, traced, failures, attempted = [], [], [], 0
    start = time.perf_counter()
    while True:
        done = Pass(jobs)
        failures += check_pass(workloads, jobs, done, expected)
        plain.append(done)
        tracer.counts.clear()
        tracer.install()
        try:
            done = Pass(jobs, tracer)
        finally:
            tracer.uninstall()
            tracer.job = None
        done.spans, done.counts = tracer.take(), tracer.counts.copy()
        failures += check_pass(workloads, jobs, done, expected)
        traced.append(done)
        attempted += 2 * len(jobs)
        if time.perf_counter() - start >= args.seconds:
            break
    first = traced[0]
    passes = median_counter([self_times(p.spans) for p in traced])
    selfs = passes + self_times(setup_spans)
    counts = first.counts + setup_counts

    def per_s(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {f"{name}.self_s": metric(selfs.get(name, 0.0), "s") for name in SELF_TIMES}
    m.update({name: metric(counts.get(name, 0), "count") for name in COUNTS})
    m["induction.num_bits"] = metric(counts.get("induction.num_bits", 0), "bits")
    m["induction.den_bits"] = metric(counts.get("induction.den_bits", 0), "bits")
    m["cli.stdout_bytes"] = metric(
        sum(len(r.stdout.encode()) for r in first.results if isinstance(r, workloads.CliRun)),
        "bytes")
    m["towers.levels_per_s"] = metric(
        per_s(counts["towers.levels"], selfs.get("towers.build", 0.0)), "1/s")
    m["iet.steps_per_s"] = metric(per_s(counts["iet.steps"], selfs.get("iet.orbit", 0.0)), "1/s")
    m["words.windows_per_s"] = metric(
        per_s(counts["words.factor_windows"], selfs.get("words.factor", 0.0)), "1/s")
    m["trace_overhead"] = metric(
        statistics.median(sum(p.scaled) for p in traced)
        / statistics.median(sum(p.scaled) for p in plain) - 1, "ratio")
    # shares pool every traced pass, so that with the harness they sum to 1
    pooled = sum((self_times(p.spans) for p in traced), Counter())
    shares = {layer: 0.0 for layer in LAYERS}
    for name, seconds in pooled.items():
        shares[layer_of(name)] += seconds / sum(sum(p.seconds) for p in traced)
    shares["harness"] = 1 - sum(shares.values())
    m.update({f"share.{layer}": metric(share, "ratio") for layer, share in shares.items()})
    m["pass_raw_s"] = metric(statistics.median(sum(p.seconds) for p in plain), "s")
    m["calibration_s"] = metric(
        statistics.median(c for p in plain + traced for c in p.calibrations), "s")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-{args.size}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"],
                   "setup": setup_spans, "first_traced_pass": first.spans}, fh)
    return failures, attempted, m


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(f"{setup(args)[2]!r}")
        return 0
    if args.trace:
        # the set-up itself is traced: import first, then wrap, then build
        workloads = import_program()
        from tracer import Tracer

        tracer = Tracer(callers=(workloads,))
        tracer.install()
        try:
            tracer.job = "setup"
            jobs = workloads.build_jobs(args.workload, args.seed, args.size)
        finally:
            tracer.uninstall()
        setup_counts, setup_spans = tracer.counts.copy(), tracer.take()
    else:
        workloads, jobs, setup_s = setup(args)
    if args.record:
        record_expected(workloads, args, jobs)
        return 0
    expected = load_expected(args.workload, args.seed, args.size, workloads.DEFAULT_SEED)
    if args.trace:
        failures, attempted, metrics = traced_run(
            workloads, args, jobs, expected, tracer, setup_spans, setup_counts)
    else:
        failures, attempted, metrics = untraced_run(workloads, args, jobs, expected, setup_s)
    for failure in failures:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
