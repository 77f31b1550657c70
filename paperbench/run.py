#!/usr/bin/env python3
"""Build and run the paper-scale benchmark.

    python3 paperbench/run.py --workload decode-16 --seed 1 --seconds 20 --trace 0
    python3 paperbench/run.py --self-test [--seed N]

The first form builds the benchmark (a Cargo package of its own in this
directory, depending on the repository's crates by path), runs one
measurement and passes its output through: a description line, then the
result object as the last line.

The second form is the determinism self-test: every workload runs twice
at reduced size, untraced and traced. Quality ratios, exact work counts
and the output digest must repeat exactly, every run must check
correct, and every metric BENCHMARK.json names must be emitted with its
unit.

Run from the repository root. The build goes to $CARGO_TARGET_DIR when
set, else to paperbench/target.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Metrics that depend on timing, so they may differ between two runs of
# the same inputs even though their unit is a count or a ratio.
TIMING_DEPENDENT = {
    "on_time_frac",
    "reader.job_queue_depth_max",
    "fleet.bus_backlog_max",
    "obs.overhead_frac",
    "trace.rtf_overhead_frac",
}


def build():
    """Builds the benchmark; returns the binary's path or None."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"paperbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("paperbench: build failed", file=sys.stderr)
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "paperbench")
    return binary if os.path.isfile(binary) else None


def run(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    try:
        done = subprocess.run(
            [binary] + args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"paperbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def self_test(binary, seed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            outs = []
            for _ in range(2):
                args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace), "--reduced"]
                code, out = run(binary, args)
                lines = out.strip().splitlines()
                if code != 0 or len(lines) < 2:
                    failures.append(f"{workload} trace {trace}: run failed")
                    break
                outs.append((json.loads(lines[-2]), json.loads(lines[-1])))
            if len(outs) < 2:
                continue
            tag = f"{workload} trace {trace}"
            for info, res in outs:
                if not res["correct"]:
                    failures.append(f"{tag}: incorrect: {info.get('problems')}")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != expected[trace]:
                    failures.append(f"{tag}: metrics/units differ from BENCHMARK.json")
            (info_a, res_a), (info_b, res_b) = outs
            if info_a["digest"] != info_b["digest"]:
                failures.append(f"{tag}: output digest differs")
            if info_a["work"] != info_b["work"]:
                failures.append(f"{tag}: decode quality counts differ")
            for name, m in res_a["metrics"].items():
                exact = m["unit"] in ("count", "ratio") and name not in TIMING_DEPENDENT
                if exact and m["value"] != res_b["metrics"][name]["value"]:
                    failures.append(f"{tag}: {name} differs between identical runs")
            print(f"self-test: {tag}: digest {info_a['digest']}", file=sys.stderr)
    for f in failures:
        print(f"self-test FAILED: {f}", file=sys.stderr)
    print("self-test " + ("failed" if failures else "passed"), file=sys.stderr)
    return 1 if failures else 0


def main():
    args = sys.argv[1:]
    binary = build()
    if binary is None:
        return 1
    if args[:1] == ["--self-test"]:
        seed = int(args[2]) if args[1:2] == ["--seed"] and len(args) > 2 else 1
        return self_test(binary, seed)
    code, out = run(binary, args)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
