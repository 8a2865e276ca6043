#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

One measurement, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the benchmark crate (release, offline) and runs it once. Its last line
of standard output is the JSON result; the line before it, starting with
`meta`, records the git sha, hardware threads and rustc version. A run with
`--trace 1` also writes its spans as JSON lines to
`$CARGO_TARGET_DIR/perfbench/spans-<workload>.jsonl` (about a million
spans, 65-130 MB), replacing the previous traced run's file.

Steadiness mode runs every workload on seeds 1-10, prints each end-to-end
metric's median and quartiles, and flags any metric whose spread
(interquartile range over median) exceeds its bound in BENCHMARK.json:

    python3 perfbench/run.py --steady [--seconds 30]

Held-out mode runs every workload, traced and untraced, on the held-out seed
that later performance claims must also hold on:

    python3 perfbench/run.py --holdout [--seconds 30]

CARGO_TARGET_DIR defaults to `.bench_build` at the repository root.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# Seed kept out of every tuning run; a gain must also show on it.
HOLDOUT_SEED = 20041106
# Seeds of steadiness mode.
STEADY_SEEDS = range(1, 11)
# A run may take `--seconds` plus set-up, the last replay and its checks.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    """Builds the benchmark; returns the binary's path or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("error: build failed", file=sys.stderr)
        return None
    return target_dir() / "release" / "fbc-perfbench"


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def metadata():
    return {
        "git_sha": capture(["git", "rev-parse", "HEAD"]),
        "hw_threads": os.cpu_count(),
        "rustc": capture(["rustc", "--version"]),
    }


def measure(binary, workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, stdout, parsed result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # The binary writes its spans under the target directory.
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} seed {seed} timed out", file=sys.stderr)
        return 1, "", None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    result = None
    if done.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, done.stdout, result


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]], {m["name"]: m for m in spec["end_to_end"]}


def steady(binary, args):
    names, metrics = bounds()
    meta = metadata()
    print(f"meta {json.dumps(meta)}")
    seeds = list(STEADY_SEEDS)
    record = {"meta": meta, "seconds": args.seconds, "seeds": seeds, "results": {}}
    failed = flagged = False
    for workload in names:
        values = {}
        runs = record["results"][workload] = []
        for seed in seeds:
            code, _, result = measure(binary, workload, seed, args.seconds, 0)
            runs.append({"seed": seed, "exit": code, "result": result})
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {code})")
                failed = True
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}  (seeds {seeds[0]}-{seeds[-1]}, {args.seconds} s each)")
        print(f"  {'metric':<20} {'unit':<7} {'median':>13} {'q1':>13} {'q3':>13} {'spread':>7} {'bound':>6}")
        for name, v in values.items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = metrics[name]["bound"]
            flag = ""
            if spread > bound:
                flag = "  SPREAD OVER BOUND"
                flagged = True
            elif spread > bound / 3:
                flag = "  spread over bound/3"
            print(f"  {name:<20} {metrics[name]['unit']:<7} {med:>13.6g} {q1:>13.6g} {q3:>13.6g} "
                  f"{spread:>7.4f} {bound:>6}{flag}")
    out = target_dir() / "perfbench" / f"steady-{datetime.datetime.now():%Y%m%dT%H%M%S}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"\nresults written to {out}")
    return 1 if failed else 3 if flagged else 0


def holdout(binary, args):
    names, _ = bounds()
    print(f"meta {json.dumps(metadata())}")
    ok = True
    for workload in names:
        for trace in (0, 1):
            code, stdout, result = measure(binary, workload, HOLDOUT_SEED, args.seconds, trace)
            good = result is not None and result["correct"]
            ok = ok and good
            print(f"{workload} trace={trace} seed={HOLDOUT_SEED}: {'ok' if good else f'FAILED (exit {code})'}")
            print(stdout.strip().splitlines()[-1] if stdout.strip() else "(no output)")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--steady", action="store_true")
    p.add_argument("--holdout", action="store_true")
    args = p.parse_args()
    single = not (args.steady or args.holdout)
    if single and (args.workload is None or args.seed is None or args.trace is None):
        p.error("one measurement needs --workload, --seed and --trace")

    binary = build()
    if binary is None:
        return 1
    if args.steady:
        return steady(binary, args)
    if args.holdout:
        return holdout(binary, args)
    code, stdout, _ = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    print(f"meta {json.dumps(metadata())}")
    print(stdout.strip())
    return code


if __name__ == "__main__":
    sys.exit(main())
