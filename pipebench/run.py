#!/usr/bin/env python3
"""Build and run the pioeval pipeline benchmark.

    python3 pipebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `pipebench` Rust
package in release mode (into $CARGO_TARGET_DIR, default `.bench_build`),
runs it for `--seconds`, and prints as its last line one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`:

* `--trace 0`: the end-to-end metrics. The binary times whole trips
  through `measure_target_instrumented`; the peak resident memory of
  single trips comes from fresh child processes, one trip each.
* `--trace 1`: the per-layer metrics of the staged trips.

The binary reports each metric's value; the unit comes from
`BENCHMARK.json`. Every child's simulated-count fingerprint must equal
the main run's, and the fingerprint of a workload and seed is kept in
the build directory, keyed by the binary's hash, so that later runs of
the same binary (either `--trace`) must reproduce it; each mismatch
counts as a failed trip.

The line before it holds the host facts: nproc, git revision, seed,
executor settings, skipped metrics and `failed_frac`. See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Single-trip children run for memory, per executor setting.
RSS_TRIPS = 3
# Hard limit on one invocation of the binary, seconds.
CHILD_TIMEOUT = 170


def fail(msg):
    print(f"pipebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark binary; return its path and the target directory."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not run: {e}")
    if done.returncode != 0:
        fail("build failed")
    target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "pioeval-pipebench"), target


def last_json(text):
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run_bin(binary, args):
    """Run the binary to completion; return its result object."""
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark binary did not finish: {e}")
    result = last_json(done.stdout)
    if done.returncode != 0 or result is None:
        fail(f"benchmark binary exited with {done.returncode} and no result")
    return result


def recorded_mismatch(binary, target, workload, seed, fingerprint):
    """Hold `fingerprint` against the one recorded for this binary,
    workload and seed, recording it if there is none; True on mismatch."""
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    directory = os.path.join(target, "pipebench-fingerprints")
    path = os.path.join(directory, f"{digest}-{workload}-{seed}.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f) != fingerprint
    os.makedirs(directory, exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(fingerprint, f)
    os.replace(path + ".tmp", path)
    return False


def git_rev():
    """The checkout's git revision, or None outside a git checkout."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()
    if a.seconds <= 0 or a.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)["per_layer" if a.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read the metric units from BENCHMARK.json: {e}")
    units = {m["name"]: m["unit"] for m in declared}

    binary, target = build()
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    mode = "layers" if a.trace else "plain"
    main_result = run_bin(binary, common + ["--seconds", str(a.seconds), "--mode", mode])
    values = dict(main_result["metrics"])
    reference = main_result["fingerprint"]
    attempted, failed = main_result["attempted"], main_result["failed"]

    if not a.trace:
        peaks = {}
        for _ in range(RSS_TRIPS):
            for trip in ("trip", "trip-traced"):
                child = run_bin(binary, common + ["--seconds", "0", "--mode", trip])
                attempted += child["attempted"]
                failed += child["failed"]
                if child["failed"] == 0 and child["fingerprint"] != reference:
                    print(f"pipebench: {trip} child's simulated counts differ from the run's",
                          file=sys.stderr)
                    failed += 1
                for name, mb in child["metrics"].items():
                    peaks.setdefault(name, []).append(mb)
        values.update({name: statistics.median(mbs) for name, mbs in peaks.items()})

    if reference and recorded_mismatch(binary, target, a.workload, a.seed, reference):
        print("pipebench: simulated counts differ from an earlier run of this binary",
              file=sys.stderr)
        failed += 1

    # A metric may be missing because its trips failed; the result then
    # says so through `failed`.
    skipped = main_result["skipped"]
    missing = set(units) - set(values) - {line.split(":")[0] for line in skipped}
    undeclared = set(values) - set(units)
    if undeclared or (missing and failed == 0):
        fail(f"metrics not emitted: {sorted(missing)}; not declared: {sorted(undeclared)}")
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}

    correct = main_result["correct"] and failed == 0
    host = dict(main_result["host"])
    host.update({
        "git_rev": git_rev(),
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "skipped": skipped,
        "failed_frac": failed / attempted,
    })
    print(json.dumps({"host": host}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
