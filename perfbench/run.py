#!/usr/bin/env python3
"""End-to-end benchmark of the rsj spatial-join library.

Builds the benchmark program (perfbench/CMakeLists.txt, Release) from the
sources of the checkout it sits in, runs one workload and prints every
metric by name and unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones. The exit code is non-zero when the build fails or any
output differs from its reference.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

The build directory is $CARGO_TARGET_DIR (relative to the checkout root)
or .bench_build. WORKLOADS.md describes the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # the checkout stays as it was

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("ingest", "serve", "overlay", "adhoc")

# name, unit
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# The workload-specific names of ops_per_s and the latencies.
ALIASES = {
    "ingest": {"ops_per_s": "ingest_objects_per_s"},
    "serve": {"ops_per_s": "serve_queries_per_s",
              "latency_p50_ms": "serve_latency_p50_ms",
              "latency_p90_ms": "serve_latency_p90_ms"},
    "overlay": {"ops_per_s": "overlay_candidates_per_s"},
    "adhoc": {"ops_per_s": "adhoc_objects_per_s"},
}

PER_LAYER = (
    ("datagen.generate_s", "s"),
    ("rtree.insert_s", "s"),
    ("rtree.pages", "count"),
    ("rtree.height", "count"),
    ("storage.disk_reads", "count"),
    ("storage.buffer_hit_rate", "ratio"),
    ("storage.buffer_evictions", "count"),
    ("storage.node_decodes", "count"),
    ("storage.node_cache_hit_rate", "ratio"),
    ("io.self_s", "s"),
    ("io.modeled_ms", "ms"),
    ("io.batches", "count"),
    ("io.prefetch_hit_rate", "ratio"),
    ("geom.comparisons", "count"),
    ("geom.exact_tests", "count"),
    ("join.filter_s", "s"),
    ("join.refine_s", "s"),
    ("join.candidates", "count"),
    ("join.result_pairs", "count"),
    ("join.raster_avoided_ratio", "ratio"),
    ("join.raster_signature_mb", "MB"),
    ("exec.self_s", "s"),
    ("exec.tasks", "count"),
    ("exec.worker_task_skew", "ratio"),
    ("exec.frontier_peak_tuples", "count"),
    ("exec.spilled_chunks", "count"),
    ("engine.self_s", "s"),
    ("engine.queue_wait_p50_ms", "ms"),
    ("engine.service_p50_ms", "ms"),
    ("engine.sessions_queued", "count"),
    ("engine.sessions_shed", "count"),
    ("engine.governor_peak_mb", "MB"),
    ("engine.plans_sj1", "count"),
    ("engine.plans_sj4", "count"),
    ("engine.plans_sj5", "count"),
    ("engine.plans_pipelined", "count"),
    ("engine.plans_prefetch", "count"),
    ("engine.planner_qerror_p50", "ratio"),
    ("engine.planner_qerror_p90", "ratio"),
    ("engine.planner_pages_qerror_p50", "ratio"),
    ("engine.planner_pages_qerror_p90", "ratio"),
    ("shard.build_s", "s"),
    ("shard.join_s", "s"),
    ("shard.replicated_ratio", "ratio"),
    ("shard.dedup_suppressed_ratio", "ratio"),
    ("shard.size_skew", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.spans", "count"),
)


# Layer of each span category the trace holds; spans of other categories
# (the benchmark's own client spans) belong to no layer.
LAYER_OF_CATEGORY = {
    "datagen": "datagen", "rtree": "rtree", "join": "join", "shard": "shard",
    "engine": "engine", "exec": "exec", "io": "io", "spill": "exec",
}
# Spans whose category names another module than the layer doing the work.
LAYER_OF_SPAN = {"spill/refine": "join"}


def self_seconds(totals):
    """Sums the "self.<category>/<name>" entries of `totals` per layer."""
    layers = {}
    for key, value in totals.items():
        if not key.startswith("self."):
            continue
        span = key[len("self."):]
        layer = LAYER_OF_SPAN.get(span,
                                  LAYER_OF_CATEGORY.get(span.split("/")[0]))
        if layer is not None:
            layers[layer] = layers.get(layer, 0.0) + value
    return layers


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark program; returns its path or
    None."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    steps = (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4"],
    )
    for step in steps:
        # Build output goes to stderr; stdout carries only the results.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "rsj_perfbench")


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def cycle_rates(raw):
    """Operations per second of each complete cycle of rounds (one round
    per geography)."""
    k = raw["geographies"]
    ops, secs = raw["round_ops"], raw["round_s"]
    return [sum(ops[i:i + k]) / sum(secs[i:i + k])
            for i in range(0, len(secs) - k + 1, k)]


def end_to_end(raw):
    rates = cycle_rates(raw)
    latencies = raw["latency_ms"]
    return {
        "ops_per_s": stats.median(rates),
        "latency_p50_ms": stats.percentile(latencies, 50),
        "latency_p90_ms": stats.percentile(latencies, 90),
        "setup_s": stats.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer(raw):
    """Means per set-up (one per geography) plus means per traced round;
    ratios are taken over the summed counts."""
    setup = {key: value / raw["geographies"]
             for key, value in raw["setup_layer"].items()}
    total = raw["layer"]
    samples = raw["layer_samples"]
    rounds = max(1, len(raw["traced_round_s"]))

    def per_round(key):
        return total.get(key, 0.0) / rounds

    def sample_stat(key, fn):
        values = samples.get(key, [])
        return fn(values) if values else 0.0

    def qerror_percentile(prefix, p):
        qerrors = [stats.qerror(e, a) for e, a in
                   zip(samples.get(prefix + "_estimate", []),
                       samples.get(prefix + "_actual", []))]
        return stats.percentile(qerrors, p) if qerrors else 0.0

    self_s = {layer: value / rounds
              for layer, value in self_seconds(total).items()}
    id_join_s = per_round("dur.join/id_join")
    refine_s = per_round("dur.spill/refine")
    return {
        "datagen.generate_s": setup.get("dur.datagen/generate", 0.0),
        "rtree.insert_s": setup.get("dur.rtree/insert", 0.0)
                          + per_round("dur.rtree/insert"),
        "rtree.pages": setup.get("rtree.pages", 0.0) + per_round("rtree.pages"),
        "rtree.height": max(raw["setup_layer"].get("rtree.height", 0.0),
                            total.get("rtree.height", 0.0)),
        "storage.disk_reads": per_round("storage.disk_reads"),
        "storage.buffer_hit_rate": ratio(
            total.get("storage.buffer_hits", 0.0),
            total.get("storage.buffer_hits", 0.0)
            + total.get("storage.disk_reads", 0.0)),
        "storage.buffer_evictions": per_round("storage.buffer_evictions"),
        "storage.node_decodes": per_round("storage.node_decodes"),
        "storage.node_cache_hit_rate": ratio(
            total.get("storage.node_cache_hits", 0.0),
            total.get("storage.node_cache_hits", 0.0)
            + total.get("storage.node_decodes", 0.0)),
        "io.self_s": self_s.get("io", 0.0),
        "io.modeled_ms": per_round("io.modeled_ms"),
        "io.batches": per_round("io.batches"),
        "io.prefetch_hit_rate": ratio(total.get("io.prefetch_hits", 0.0),
                                      total.get("io.prefetch_issued", 0.0)),
        "geom.comparisons": per_round("geom.comparisons"),
        "geom.exact_tests": per_round("geom.exact_tests"),
        "join.filter_s": max(0.0, id_join_s - refine_s),
        "join.refine_s": refine_s,
        "join.candidates": per_round("join.candidates"),
        "join.result_pairs": per_round("join.result_pairs"),
        "join.raster_avoided_ratio": ratio(
            total.get("join.raster_avoided", 0.0),
            total.get("join.candidates", 0.0)),
        "join.raster_signature_mb": per_round("join.raster_signature_mb"),
        "exec.self_s": self_s.get("exec", 0.0),
        "exec.tasks": per_round("count.exec/task"),
        "exec.worker_task_skew": sample_stat("exec.worker_task_skew",
                                             stats.median),
        "exec.frontier_peak_tuples": total.get("exec.frontier_peak_tuples",
                                               0.0),
        "exec.spilled_chunks": per_round("exec.spilled_chunks"),
        "engine.self_s": self_s.get("engine", 0.0),
        "engine.queue_wait_p50_ms": sample_stat("engine.queue_wait_ms",
                                                stats.median),
        "engine.service_p50_ms": sample_stat("engine.service_ms",
                                             stats.median),
        "engine.sessions_queued": per_round("engine.sessions_queued"),
        "engine.sessions_shed": per_round("engine.sessions_shed"),
        "engine.governor_peak_mb": sample_stat("engine.governor_peak_mb", max),
        "engine.plans_sj1": per_round("engine.plans_sj1"),
        "engine.plans_sj4": per_round("engine.plans_sj4"),
        "engine.plans_sj5": per_round("engine.plans_sj5"),
        "engine.plans_pipelined": per_round("engine.plans_pipelined"),
        "engine.plans_prefetch": per_round("engine.plans_prefetch"),
        "engine.planner_qerror_p50": qerror_percentile("engine.qerror", 50),
        "engine.planner_qerror_p90": qerror_percentile("engine.qerror", 90),
        "engine.planner_pages_qerror_p50": qerror_percentile("engine.pages",
                                                             50),
        "engine.planner_pages_qerror_p90": qerror_percentile("engine.pages",
                                                             90),
        "shard.build_s": per_round("dur.shard/decluster")
                         + per_round("dur.shard/build"),
        "shard.join_s": per_round("dur.shard/join"),
        "shard.replicated_ratio": ratio(total.get("shard.replicated", 0.0),
                                        total.get("shard.objects", 0.0)),
        "shard.dedup_suppressed_ratio": ratio(
            total.get("shard.suppressed_pairs", 0.0),
            total.get("shard.raw_pairs", 0.0)),
        "shard.size_skew": sample_stat("shard.size_skew", stats.median),
        "obs.trace_overhead_ratio": ratio(
            stats.median(raw["traced_round_s"]),
            stats.median(raw["untraced_round_s"])),
        "obs.spans": per_round("obs.spans"),
    }


def report(workload, raw, trace):
    """Prints the metric lines and returns the metrics object."""
    attempted = raw["attempted"]
    failed = raw["failed"]
    print("seed=%d workload=%s rounds=%d attempted=%d failed=%d"
          % (raw["seed"], workload, len(raw["round_s"]), attempted, failed))
    print("failed_ratio = %.6g" % ratio(failed, attempted))
    if trace:
        values = per_layer(raw)
        units = PER_LAYER
        dropped = raw["layer"].get("obs.dropped", 0)
        if dropped:
            print("warning: the trace dropped %d events; span counts are low"
                  % dropped)
    else:
        values = end_to_end(raw)
        units = END_TO_END
        count = len(raw["latency_ms"])
        tail = stats.tail_percentile(count)
        if tail is not None:
            print("latency tail: p%g = %.6g ms over %d samples"
                  % (tail, stats.percentile(raw["latency_ms"], tail), count))
        else:
            print("latency tail: %d samples, fewer than 20" % count)
        print("peak RSS through set-up: %.6g MB"
              % (raw["setup_peak_rss_kb"] / 1024.0))
    aliases = ALIASES[workload] if not trace else {}
    metrics = {}
    for name, unit in units:
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        alias = aliases.get(name)
        print("%-32s %14.6g %s%s" % (name, value, unit,
                                     "  (= %s)" % alias if alias else ""))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="drop one result from every checked output")
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    binary = build()
    if binary is None:
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.perturb:
        command.append("--perturb")
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    raw = None
    for line in proc.stdout.splitlines():
        if line.startswith("RAW "):
            raw = json.loads(line[4:])
        else:
            print(line)
    if raw is None:
        log("benchmark exited with %d and no result" % proc.returncode)
        return 1
    metrics = report(args.workload, raw, args.trace == 1)
    correct = raw["failed"] == 0 and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
