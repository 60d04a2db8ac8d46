"""Metric derivation: raw measurements in, named metrics out.

End-to-end metrics come from the untraced loop only.  Per-layer metrics
come from the traced reps (library workloads) or from the service's own
responses (service workloads).  Span-derived times are shares of the traced
entry-point wall time, because a layer that does not run in a workload has
no time to report; counts are per entry-point call (or per fresh job) and
come from the program's ``MiningStats``, which includes work done in pool
workers.  Every workload reports every metric; a layer a workload never
enters reads 0.
"""

from __future__ import annotations

import statistics
from collections import Counter
from typing import Any, Dict, List, Sequence

from .compare import percentile, tail_percentile
from .spans import layer_of


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def stats_metrics(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Per-call counters from ``MiningStats`` snapshots (averaged over calls)."""
    total: Counter = Counter()
    for snapshot in snapshots:
        total.update({k: v for k, v in snapshot.items() if isinstance(v, (int, float))})
    calls = len(snapshots)

    def per_call(*names: str) -> float:
        return _ratio(sum(total[name] for name in names), calls)

    pruned = sum(
        total[name] for name in (
            "pruned_by_count", "pruned_by_chernoff", "pruned_by_frequency",
            "pruned_by_superset", "pruned_by_subset",
        )
    )
    return {
        "support.dp_invocations": per_call("dp_invocations"),
        "support.dp_cache_hit_rate": _ratio(
            total["dp_cache_hits"], total["dp_cache_hits"] + total["dp_cache_misses"]
        ),
        "tidsets.intersections": per_call("tidset_intersections"),
        "tidsets.words_anded": per_call("tidset_words_anded"),
        "tidsets.words_per_intersection": _ratio(
            total["tidset_words_anded"], total["tidset_intersections"]
        ),
        "tidsets.prefix_hit_rate": _ratio(
            total["tidset_prefix_hits"],
            total["tidset_prefix_hits"] + total["tidset_prefix_misses"],
        ),
        "bounds.evaluations": per_call("bound_evaluations"),
        "bounds.decided_fraction": _ratio(
            total["decided_by_tight_bounds"] + total["accepted_by_lower_bound"]
            + total["rejected_by_upper_bound"],
            total["bound_evaluations"],
        ),
        "approx.checks": per_call("fcp_sampled_evaluations"),
        "approx.samples": per_call("monte_carlo_samples"),
        "miner.nodes_visited": per_call("nodes_visited"),
        "miner.checks_performed": per_call("checks_performed"),
        "miner.pruned_fraction": _ratio(pruned, pruned + total["checks_performed"]),
        "supervisor.branches_dispatched": per_call("branches_dispatched"),
        "supervisor.branch_retries": per_call("branch_retries"),
        "supervisor.pool_rebuilds": per_call("pool_rebuilds"),
        "checkpoint.writes": per_call("checkpoint_branches_written", "checkpoint_shards_written"),
        "sharding.shard_retries": per_call("shard_retries"),
    }


def _median_of(samples: Sequence[float]) -> Dict[str, Any]:
    return {"value": statistics.median(samples), "n": len(samples), "samples": list(samples)}


def end_to_end(
    setup_s: Sequence[float], run_s: Sequence[float], peak_rss_kb: int
) -> Dict[str, Dict[str, Any]]:
    return {
        "setup_s": _median_of(setup_s),
        "run_s_p50": _median_of(run_s),
        "peak_rss_mb": {"value": peak_rss_kb / 1024, "n": 1},
    }


def library_per_layer(trace: Dict[str, Any], run_s_p50: float) -> Dict[str, float]:
    entry_s: List[float] = trace["entry_s"]
    wall = sum(entry_s)
    own: Dict[str, float] = trace["self_s"]
    calls: Dict[str, float] = trace["calls"]
    reps = len(entry_s)

    def seconds(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names)

    def layer(prefix: str) -> float:
        return sum(value for name, value in own.items() if layer_of(name) == prefix)

    support_s = layer("support")
    approx_s = seconds("approx.approx_union_probability", "approx.sampler")
    stats = trace["stats"]
    metrics = stats_metrics(stats)
    samples = sum(snapshot["monte_carlo_samples"] for snapshot in stats)
    checkpoint_bytes = [c.get("checkpoint_bytes", 0) for c in trace["cleanups"]]
    metrics.update(
        {
            "support.share": support_s / wall,
            "support.Mcells_per_s": _ratio(calls.get("support.dp_cells", 0), support_s) / 1e6,
            "support.dp_cells": calls.get("support.dp_cells", 0) / reps,
            "support.dp_batch_calls": calls.get("support.dp_batch_calls", 0) / reps,
            "tidsets.share": layer("tidsets") / wall,
            "events.share": layer("events") / wall,
            "events.systems_built": calls.get("events.build", 0) / reps,
            "events.exact_ie_calls": calls.get("events.union_probability_exact", 0) / reps,
            "bounds.share": layer("bounds") / wall,
            "approx.share": seconds("approx.approx_union_probability") / wall,
            "approx.sampler_share": seconds("approx.sampler") / wall,
            "approx.samples_per_s": _ratio(samples, approx_s),
            "miner.share": seconds("miner.mine") / wall,
            "columnar.load_s": seconds("columnar.load_columnar"),
            "supervisor.share": seconds("supervisor.run_supervised") / wall,
            "supervisor.plan_share": seconds("supervisor.plan_root_branches") / wall,
            "checkpoint.write_share": seconds("checkpoint.open", "checkpoint.write") / wall,
            "checkpoint.bytes": statistics.mean(checkpoint_bytes),
            "sharding.scan_share": sum(s["shard_scan_seconds"] for s in stats) / wall,
            "sharding.merge_share": sum(s["shard_merge_seconds"] for s in stats) / wall,
            "sharding.merge_verify_share": seconds("sharding.merge_verify") / wall,
            "sharding.merge_dp_share": seconds("sharding.merge_dp") / wall,
            "trace.overhead": statistics.median(entry_s) / run_s_p50 - 1.0,
        }
    )
    return metrics


def latency_detail(prefix: str, latencies: Sequence[float]) -> Dict[str, Any]:
    """Median and the highest percentile with ten samples beyond it."""
    detail: Dict[str, Any] = {f"{prefix}_n": len(latencies)}
    if latencies:
        detail[f"{prefix}_p50"] = statistics.median(latencies)
    tail = tail_percentile(len(latencies))
    if tail is not None:
        detail[f"{prefix}_p{tail}"] = percentile(latencies, tail)
    return detail


def service_per_layer(
    timed: Sequence[Any], cache_stats: Dict[str, int], checkpoint_bytes: Sequence[int],
    load_s: float,
) -> Dict[str, float]:
    """Layer split of the timed jobs, from the service's own responses.

    ``timed`` are the successful timed job records
    (:class:`benchmarks.e2e.service.JobRecord`), all fresh or all cached.
    A cached job is never mined, so its mining counters, queue and run
    times and checkpoint read 0.
    """
    job_s = sum(record.latency_s for record in timed)

    def share(values: Sequence[float]) -> float:
        return sum(values) / job_s

    metrics = {
        "columnar.load_s": load_s,
        "service.submit_share": share([r.submit_s for r in timed]),
        "service.result_share": share([r.result_s for r in timed]),
        "service.polls_per_job": statistics.mean(r.polls for r in timed),
        "service.result_bytes": statistics.median(r.result_bytes for r in timed),
        "service.cache_hit_rate": _ratio(
            cache_stats["hits"], cache_stats["hits"] + cache_stats["misses"]
        ),
    }
    if not timed[0].cached:
        metrics.update(stats_metrics([record.stats for record in timed]))
        metrics.update(
            {
                "checkpoint.bytes": statistics.mean(checkpoint_bytes),
                "service.queue_wait_share": share(
                    [r.status["started_at"] - r.status["submitted_at"] for r in timed]
                ),
                "service.run_share": share(
                    [r.status["finished_at"] - r.status["started_at"] for r in timed]
                ),
                "service.outside_mining_share": 1.0 - share(
                    [r.stats["elapsed_seconds"] for r in timed]
                ),
            }
        )
    return metrics
