"""Tidset backend speedup: packed-bitmap engine vs the tuple oracle.

The acceptance config for the bitmap engine is the ``MPFCI-NoBound`` variant
of the fig. 6 mushroom min_sup sweep.  Its configs come from
:func:`repro.eval.experiments.default_config`, which sets
``exact_event_limit=0``: with the Lemma 4.4 interval disabled, every
closedness check that survives the cheap prunings runs ApproxFCP's
Karp–Luby sampling, and none runs exact inclusion–exclusion (at CI scale and
ratio 0.3, 231,275 samples over 10 sampled checks).  The tuple oracle walks
every sample through the serial conditional sampler and a per-sample set
intersection; the packed backend batches the samples through the vectorized
sampler and the frontier's support DPs through the padded batch DP.  It must
mine the sweep at least :data:`MIN_SPEEDUP` times faster than the tuple
backend while producing the field-for-field identical result list (the
backends are bit-exact by construction — see ``docs/performance.md``).

Two measurements live here:

* :func:`test_bitmap_backend_speedup` — the acceptance pair, ``bitmap`` vs
  the ``tuple`` oracle.
* :func:`test_kernel_ablation` — the kernel ablation, which adds the
  ``bitmap-noprefix`` backend (the same packed engine with the per-prefix
  gather cache and active-word kernels disabled).  The gap between the two
  bitmap rows is exactly what the fused kernels buy; the deterministic
  ``tidset_words_anded`` counter must be strictly lower with the cache on.

Timing protocol: the backends are interleaved round by round and each side
keeps its best round, so a machine-load swing during the measurement hits
all backends rather than silently inflating (or deflating) a ratio.

``benchmarks/check_tidset_regression.py`` reuses :func:`measure_backend_speedup`
to compare a fresh smoke measurement — wall-clock speedup *and* the
deterministic per-point engine counters — against the committed
``BENCH_tidset_backend.json`` baseline in CI.
"""

import time

from repro.core.miner import MPFCIMiner
from repro.eval.experiments import default_config, miner_variants

from .conftest import record_bench_json

#: Ratios of the mushroom min_sup sweep timed here (the fig. 6 mushroom point
#: plus the next sweep step up, which keeps the exact-recursion runtimes CI
#: friendly).
SWEEP_RATIOS = (0.3, 0.25)

#: The sweep variant that isolates tidset-engine work (see module docstring).
VARIANT = "MPFCI-NoBound"

#: Acceptance floor for the aggregate bitmap-over-tuple speedup.  Raised from
#: 3x to 7x when the frontier-fused DP kernels (per-prefix gather cache,
#: active-word intersections, batched inclusion–exclusion) landed.
MIN_SPEEDUP = 7.0

#: The default acceptance pair: the packed engine against the oracle.
DEFAULT_BACKENDS = ("bitmap", "tuple")

#: The kernel-ablation lineup: full kernels, kernels disabled, oracle.
ABLATION_BACKENDS = ("bitmap", "bitmap-noprefix", "tuple")

#: Every field of a mining result that the parity check compares.  The two
#: backends must agree on all of them exactly — not approximately.
RESULT_FIELDS = (
    "itemset",
    "probability",
    "lower",
    "upper",
    "method",
    "frequent_probability",
)

#: Engine counters captured per (point, backend).  All are deterministic for
#: a fixed database + config, which is what lets the CI regression gate
#: compare them exactly instead of through noisy wall-clock.
COUNTER_FIELDS = (
    "tidset_intersections",
    "tidset_words_anded",
    "tidset_popcounts",
    "tidset_gathers",
    "tidset_prefix_hits",
    "tidset_prefix_misses",
    "dp_invocations",
    "dp_batch_invocations",
)


def result_table(results):
    """Results as plain tuples, one entry per RESULT_FIELDS, order preserved."""
    return [
        tuple(getattr(result, field) for field in RESULT_FIELDS)
        for result in results
    ]


def measure_backend_speedup(
    database, ratios=SWEEP_RATIOS, rounds=2, backends=DEFAULT_BACKENDS
):
    """Interleaved best-of-``rounds`` backend comparison over the sweep.

    Returns a JSON-ready payload: one entry per sweep point carrying every
    backend's best wall-clock and engine counters, the per-point speedups
    over the ``tuple`` oracle and the parity verdict, plus the aggregate
    bitmap-over-tuple speedup the acceptance assertion and the CI regression
    check read.
    """
    if "tuple" not in backends or "bitmap" not in backends:
        raise ValueError(
            f"backends must include 'bitmap' and the 'tuple' oracle: {backends}"
        )
    points = []
    for ratio in ratios:
        config = miner_variants(default_config(database, ratio))[VARIANT]
        timings = {backend: [] for backend in backends}
        tables = {}
        counters = {}
        for _round in range(rounds):
            for backend in backends:
                miner = MPFCIMiner(
                    database, config.variant(tidset_backend=backend)
                )
                started = time.perf_counter()
                results = miner.mine()
                timings[backend].append(time.perf_counter() - started)
                tables[backend] = result_table(results)
                stats = miner.stats
                counters[backend] = {
                    field: getattr(stats, field) for field in COUNTER_FIELDS
                }
        best = {
            backend: min(samples) for backend, samples in timings.items()
        }
        points.append(
            {
                "ratio": ratio,
                "min_sup": config.min_sup,
                "results": len(tables["bitmap"]),
                "results_identical": all(
                    tables[backend] == tables["tuple"] for backend in backends
                ),
                "backend_seconds": {
                    backend: round(seconds, 4)
                    for backend, seconds in best.items()
                },
                "speedups": {
                    backend: round(best["tuple"] / best[backend], 3)
                    for backend in backends
                    if backend != "tuple"
                },
                "bitmap_seconds": round(best["bitmap"], 4),
                "tuple_seconds": round(best["tuple"], 4),
                "speedup": round(best["tuple"] / best["bitmap"], 3),
                "engine_counters": counters,
            }
        )
    bitmap_total = sum(point["bitmap_seconds"] for point in points)
    tuple_total = sum(point["tuple_seconds"] for point in points)
    return {
        "dataset": "mushroom",
        "scale": "ci",
        "variant": VARIANT,
        "rounds": rounds,
        "backends": list(backends),
        "points": points,
        "bitmap_seconds": round(bitmap_total, 4),
        "tuple_seconds": round(tuple_total, 4),
        "speedup": round(tuple_total / bitmap_total, 3),
        "results_identical": all(point["results_identical"] for point in points),
    }


def test_bitmap_backend_speedup(benchmark, mushroom_db):
    """Acceptance: bitmap >= 7x over tuple on the sweep, identical results."""
    payloads = []

    def run():
        payloads.append(measure_backend_speedup(mushroom_db))
        return payloads[-1]

    # The pedantic wrapper times one full interleaved comparison; the
    # interesting numbers (per-backend seconds, speedups) live in the payload.
    payload = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["backend_sweep"] = payload
    record_bench_json("tidset_backend", payload)
    for point in payload["points"]:
        assert point["results_identical"], (
            "backends diverged at ratio "
            f"{point['ratio']}: {point}"
        )
    assert payload["speedup"] >= MIN_SPEEDUP, payload


def test_kernel_ablation(benchmark, mushroom_db):
    """Ablation: the prefix-cache/active-word kernels must earn their keep.

    Runs the full three-way lineup (``bitmap``, ``bitmap-noprefix``,
    ``tuple``) and asserts, per sweep point, that

    * all three backends produce the identical result list,
    * the cached engine never ANDs *more* words than the ablated one and its
      prefix cache registers hits while the ablated engine registers none
      (deterministic counters rather than wall-clock; at CI scale the
      mushroom bitmap is only two words wide, so the active-word restriction
      cannot trim columns here — the strict words-ANDed reduction on wider
      bitmaps is pinned by ``tests/test_tidset_backends.py``), and
    * batched DP invocations dominate on both bitmap variants (the frontier
      batching is engaged).
    """
    payloads = []

    def run():
        payloads.append(
            measure_backend_speedup(mushroom_db, backends=ABLATION_BACKENDS)
        )
        return payloads[-1]

    payload = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["kernel_ablation"] = payload
    record_bench_json("tidset_kernel_ablation", payload)
    assert payload["results_identical"], payload
    assert payload["speedup"] >= MIN_SPEEDUP, payload
    for point in payload["points"]:
        cached = point["engine_counters"]["bitmap"]
        ablated = point["engine_counters"]["bitmap-noprefix"]
        assert cached["tidset_words_anded"] <= ablated["tidset_words_anded"], point
        assert cached["tidset_prefix_hits"] > 0, point
        assert ablated["tidset_prefix_hits"] == 0, point
        for backend in ("bitmap", "bitmap-noprefix"):
            counter = point["engine_counters"][backend]
            assert (
                counter["dp_batch_invocations"] * 2 > counter["dp_invocations"]
            ), (backend, point)
