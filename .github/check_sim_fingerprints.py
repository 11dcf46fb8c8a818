#!/usr/bin/env python3
"""Simulated-clock gate: every perfbench workload must exit 0 and reproduce
the sim_fingerprint checked into .github/sim_fingerprints.json.

Run from the repository root: python3 .github/check_sim_fingerprints.py
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, ".github", "sim_fingerprints.json")) as f:
        expected = json.load(f)["fingerprints"]
    failed = False
    for workload, want in expected.items():
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        got = None
        for line in proc.stdout.splitlines():
            if line.startswith('{"meta"'):
                got = json.loads(line)["meta"].get("sim_fingerprint")
        if proc.returncode != 0:
            print(f"{workload}: run.py exited {proc.returncode}")
            failed = True
        elif got != want:
            print(f"{workload}: sim_fingerprint {got}, expected {want}")
            failed = True
        else:
            print(f"{workload}: sim_fingerprint {got} ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
