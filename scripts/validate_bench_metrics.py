#!/usr/bin/env python3
"""Validate BENCH_metrics.json written by bench/micro_core.

Usage: validate_bench_metrics.py [cold|warm|serve]

Checks that every expected section and key is present and not NaN. The
optional mode argument asserts the trace-cache behaviour of the run that
just finished: a `cold` run (empty cache directory) must record a cache
miss, a `warm` run must record a cache hit and no miss — so CI catches a
regression in snapshot keying, decoding, or cache lookup, not just a
missing metric.

`serve` mode validates only the serve_load section (written by `histpc
bench-client --out` or bench/serve_load, which don't produce the
micro_core sections): load points must carry ordered positive latency
percentiles, a low-RPS smoke run must shed nothing, and when the section
reports warm_speedup_vs_cold it must clear the 5x acceptance bar.
"""

import json
import sys

REQUIRED = {
    "metric_query": [
        "indexed_ns_per_query",
        "scan_ns_per_query",
        "speedup_vs_scan",
        "p50_ns_per_query",
        "p99_ns_per_query",
    ],
    "block_skip": [
        "intervals",
        "block_size",
        "simd_level",
        "simd_lane_width",
        "block_ns_per_query",
        "indexed_ns_per_query",
        "scan_ns_per_query",
        "speedup_vs_indexed",
        "speedup_vs_scan",
        "blocks_skipped_ratio",
        "p50_ns_per_query",
        "p99_ns_per_query",
    ],
    "directive_lookup": ["scan_ns_per_lookup", "indexed_ns_per_lookup", "speedup_vs_scan"],
    "store_query": [
        "runs",
        "indexed_ns_per_query",
        "indexed_cold_ns_per_query",
        "scan_binary_ns_per_query",
        "json_scan_ns_per_query",
        "speedup_vs_json_scan",
        "speedup_vs_binary_scan",
        "p50_ns_per_query",
        "p99_ns_per_query",
    ],
    "directive_gen_nruns": [
        "runs",
        "pooled_ns_per_gen",
        "pairwise_fold_ns_per_gen",
        "nrun_combine_ns_per_gen",
        "weighted_ns_per_gen",
    ],
    "focus_intern": ["string_ns_per_op", "interned_ns_per_op", "speedup_vs_string"],
    "parallel_variants": [
        "variants",
        "threads",
        "hardware_concurrency",
        "sequential_seconds",
        "parallel_seconds",
        "speedup_vs_sequential",
    ],
    "trace_snapshot": [
        "intervals",
        "cold_simulate_ns",
        "encode_ns",
        "warm_load_ns",
        "speedup_vs_simulate",
        "binary_bytes",
        "json_bytes",
        "json_bytes_vs_binary",
        "cache_hits",
        "cache_misses",
    ],
    "table1_directives": ["end_to_end_seconds"],
    "telemetry": ["events_recorded", "summary"],
}


def validate_serve(metrics: dict) -> None:
    if "serve_load" not in metrics:
        sys.exit("BENCH_metrics.json: missing section 'serve_load'")
    serve = metrics["serve_load"]
    points = serve.get("points")
    if not points:
        sys.exit("serve_load: no load points recorded")
    for i, point in enumerate(points):
        for key in ("offered_rps", "achieved_rps", "sent", "ok", "shed", "errors",
                    "p50_ms", "p99_ms", "shed_rate"):
            if key not in point:
                sys.exit(f"serve_load: point {i} missing {key!r}")
        if not point["p50_ms"] > 0:
            sys.exit(f"serve_load: point {i} p50_ms {point['p50_ms']} not positive — "
                     "no successful request was ever timed")
        if point["p99_ms"] < point["p50_ms"]:
            sys.exit(f"serve_load: point {i} p99_ms {point['p99_ms']} < "
                     f"p50_ms {point['p50_ms']}")
        if point["errors"] != 0:
            sys.exit(f"serve_load: point {i} saw {point['errors']} transport errors")
    # The smoke run drives well under capacity: admission control must not
    # have engaged (first point only; saturation points are meant to shed).
    if points[0]["shed_rate"] != 0:
        sys.exit(f"serve_load: shed_rate {points[0]['shed_rate']} at low load — "
                 "admission control shed requests a healthy server should absorb")
    if "warm_speedup_vs_cold" in serve and serve["warm_speedup_vs_cold"] < 5:
        sys.exit(f"serve_load: warm served request only "
                 f"{serve['warm_speedup_vs_cold']:.1f}x over a cold one-shot "
                 "(acceptance bar is 5x)")
    print("BENCH_metrics.json serve_load OK:", len(points), "load point(s)")


def main() -> None:
    mode = sys.argv[1] if len(sys.argv) > 1 else None
    if mode not in (None, "cold", "warm", "serve"):
        sys.exit(f"unknown mode {mode!r}: expected 'cold', 'warm', or 'serve'")

    with open("BENCH_metrics.json") as f:
        metrics = json.load(f)

    if mode == "serve":
        validate_serve(metrics)
        return

    for section, keys in REQUIRED.items():
        if section not in metrics:
            sys.exit(f"BENCH_metrics.json: missing section {section!r}")
        for key in keys:
            if key not in metrics[section]:
                sys.exit(f"BENCH_metrics.json: missing {section}.{key}")
            value = metrics[section][key]
            if isinstance(value, (int, float)) and not value == value:
                sys.exit(f"BENCH_metrics.json: {section}.{key} is NaN")

    # The histogram-derived percentiles must be ordered and positive: a
    # zero p50 means the sampled path never recorded into the registry.
    for section in ("metric_query", "block_skip", "store_query"):
        p50, p99 = metrics[section]["p50_ns_per_query"], metrics[section]["p99_ns_per_query"]
        if not p50 > 0:
            sys.exit(f"{section}: p50_ns_per_query {p50} not positive — "
                     "the sampled timing path recorded no histogram laps")
        if p99 < p50:
            sys.exit(f"{section}: p99_ns_per_query {p99} < p50_ns_per_query {p50}")

    block_skip = metrics["block_skip"]
    ratio = block_skip["blocks_skipped_ratio"]
    if not 0.0 < ratio <= 1.0:
        sys.exit(f"block_skip: blocks_skipped_ratio {ratio} outside (0, 1] — "
                 "the summaries pruned nothing on the phase-clustered trace")
    if block_skip["speedup_vs_indexed"] != block_skip["speedup_vs_indexed"] or \
            block_skip["speedup_vs_indexed"] <= 0:
        sys.exit("block_skip: speedup_vs_indexed missing or non-positive")
    if block_skip["simd_lane_width"] not in (1, 2, 4):
        sys.exit(f"block_skip: unexpected simd_lane_width {block_skip['simd_lane_width']}")

    # Experiment-store acceptance bar: at >= 1000 stored runs the indexed
    # latest() must beat the legacy JSON re-parse by >= 10x.
    store_query = metrics["store_query"]
    if store_query["runs"] < 1000:
        sys.exit(f"store_query: benchmarked {store_query['runs']} runs, expected >= 1000")
    if store_query["speedup_vs_json_scan"] < 10:
        sys.exit(f"store_query: indexed latest() only "
                 f"{store_query['speedup_vs_json_scan']:.1f}x over JSON re-parse "
                 "(acceptance bar is 10x at 1000 runs)")

    snapshot = metrics["trace_snapshot"]
    if mode == "cold" and snapshot["cache_misses"] < 1:
        sys.exit("trace_snapshot: cold run recorded no trace-cache miss")
    if mode == "warm":
        if snapshot["cache_hits"] < 1:
            sys.exit("trace_snapshot: warm run recorded no trace-cache hit")
        if snapshot["cache_misses"] != 0:
            sys.exit("trace_snapshot: warm run re-simulated instead of hitting the cache")

    print("BENCH_metrics.json OK:", ", ".join(sorted(metrics)))


if __name__ == "__main__":
    main()
