#!/usr/bin/env python3
"""Checks that the benchmark's quality metrics and work counts repeat exactly.

Runs every workload twice with the same seed, traced (the traced run records
the work counts), and compares the numbers that must not depend on timing:
explanation quality, related pairs, training cells and store bytes.  Then runs
each workload once on a second seed and prints the same numbers.  A mismatch
is a bug in the program or the benchmark, not noise: the script exits 1.

Run from the repository root (a few minutes per workload):

    python3 perfbench/check_determinism.py --seed 7 --other-seed 1234
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

END_TO_END = ["precision_w3", "generality_w3", "despite_relevance_w3", "store_bytes_per_record"]
PER_LAYER = [
    "training.related_pairs",
    "training.scanned_pairs",
    "bridge.cells",
    "journal.bytes_per_record",
    "snapshot.store_bytes_per_record",
    "eval.precision_w3",
    "eval.generality_w3",
    "eval.despite_relevance_w3",
]


def run(command, workload, seed, seconds, out_dir):
    """Runs one traced run and returns its full result record."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr[-2000:]}")
    record = Path(".bench_out") / f"{workload}-seed{seed}-trace1.json"
    kept = out_dir / f"{workload}-seed{seed}-{len(list(out_dir.iterdir()))}.json"
    shutil.copy(record, kept)
    return json.loads(record.read_text())


def exact_numbers(record):
    numbers = {}
    for name in END_TO_END:
        if name in record["end_to_end"]:
            numbers[name] = record["end_to_end"][name]["value"]
    for name in PER_LAYER:
        numbers[name] = record["per_layer"][name]["value"]
    return numbers


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--other-seed", type=int, default=1234)
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    out_dir = Path(".bench_out") / "determinism"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    mismatches = 0
    for workload in workloads:
        first = exact_numbers(run(bench["command"], workload, args.seed, seconds, out_dir))
        second = exact_numbers(run(bench["command"], workload, args.seed, seconds, out_dir))
        other = exact_numbers(run(bench["command"], workload, args.other_seed, seconds, out_dir))
        for name in first:
            same = first[name] == second[name]
            mismatches += not same
            print(f"{workload:17} {name:32} seed {args.seed}: {first[name]!r:>22} "
                  f"{second[name]!r:>22} {'same' if same else 'MISMATCH'}   "
                  f"seed {args.other_seed}: {other[name]!r}")
    if mismatches:
        sys.exit(f"{mismatches} numbers differ between two runs of the same seed")
    print("every quality metric and work count repeated exactly")


if __name__ == "__main__":
    main()
