#!/usr/bin/env python3
"""Runs one workload of the benchmark on several seeds and reports, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload serve --seeds 1-10

Exits non-zero when a run fails or a spread exceeds its bound.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    metrics = config["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    ok = True
    for seed in parse_seeds(args.seeds):
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(config["run_seconds"]),
                   "--trace", "0"]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            ok = False
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)
    for metric in metrics:
        name = metric["name"]
        series = values[name]
        if len(series) < 2:
            continue
        spread = stats.relative_spread(series)
        bound = metric["bound"]
        verdict = ("ok" if spread <= bound / 3
                   else "WIDE" if spread <= bound else "OVER")
        ok &= spread <= bound
        print("%-28s median %12.6g spread %.4f bound %.2f %s"
              % (name, stats.median(series), spread, bound, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
