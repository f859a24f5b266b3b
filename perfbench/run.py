#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload train_eval --seed 1 --seconds 20 --trace 0

Steadiness mode: every workload run repeatedly, interleaved round by
round, reporting per metric the median, quartiles and (q3 - q1) / median:

    python3 perfbench/run.py --steadiness --rounds 10 [--workloads a,b]

The binary is built from source with cargo into $CARGO_TARGET_DIR
(default `.bench_build`); its working files (per-op sweep caches, the warm
sweep cache) live in `<target dir>/perfbench-work`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    # Cargo's output goes to stderr: stdout is reserved for the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--work-dir", os.path.join(target_dir(), "perfbench-work"),
        "--expected-dir", os.path.join(ROOT, "perfbench", "expected"),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: {workload} timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, e.stdout or ""
    return done.returncode, done.stdout


def spread_table(results):
    """results: {workload: {metric: [values]}} -> printable rows."""
    rows = []
    for workload, metrics in results.items():
        for name, values in metrics.items():
            if len(values) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(values, n=4)
            rows.append({
                "workload": workload,
                "metric": name,
                "n": len(values),
                "median": q2,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / q2 if q2 else float("inf"),
            })
    return rows


def steadiness(binary, args):
    workloads = args.workloads.split(",")
    results = {w: {} for w in workloads}
    for r in range(args.rounds):
        # Rotate the order so no workload always runs first after a pause.
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            code, out = run_once(binary, w, args.seed + r, args.seconds, 0)
            last = out.strip().splitlines()[-1] if out.strip() else "{}"
            record = json.loads(last)
            if code != 0 or not record.get("correct"):
                print(f"perfbench: {w} round {r} failed", file=sys.stderr)
                return 1
            for name, m in record["metrics"].items():
                results[w].setdefault(name, []).append(m["value"])
            print(f"round {r} {w}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in record["metrics"].items()), file=sys.stderr)
    rows = spread_table(results)
    print(f"{'workload':<20} {'metric':<16} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for row in rows:
        print(f"{row['workload']:<20} {row['metric']:<16} {row['n']:>3} {row['median']:>14.6g} "
              f"{row['q1']:>14.6g} {row['q3']:>14.6g} {row['spread']:>8.4f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"rounds": args.rounds, "seconds": args.seconds, "rows": rows,
                       "values": results}, f, indent=1)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--workloads",
                   default="label_sweep,train_eval,serve_features,serve_kernel_batch")
    p.add_argument("--out", help="steadiness mode: write the table and raw values as JSON")
    args = p.parse_args()
    if not args.steadiness and not args.workload:
        p.error("--workload is required unless --steadiness is given")

    binary = build()
    if binary is None:
        return 1
    if args.steadiness:
        return steadiness(binary, args)
    code, out = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
