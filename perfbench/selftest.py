#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Runs the statistics-helper tests, checks that --seed 1 reproduces
MakeWorkload's maps, and checks that every workload's correctness gate
fails (non-zero exit, "correct": false) when one result is perturbed.

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import test_stats  # noqa: E402


def main():
    ok = True
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_stats)
    ok &= unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()

    binary = run.build()
    if binary is None:
        return 1
    seed_check = subprocess.run([binary, "--check-paper-seed"], cwd=ROOT)
    print("paper seed check: %s" % ("ok" if seed_check.returncode == 0
                                    else "FAILED"))
    ok &= seed_check.returncode == 0

    for workload in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seconds", "0.1", "--perturb"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        caught = (proc.returncode != 0 and result.get("correct") is False
                  and result.get("failed", 0) > 0)
        print("perturbed %s: %s (exit %d, failed %s of %s)"
              % (workload, "gate fails as it should" if caught else "MISSED",
                 proc.returncode, result.get("failed"),
                 result.get("attempted")))
        ok &= caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
