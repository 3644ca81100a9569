"""The benchmark's metric catalog: one place for every name, unit and
direction, the end-to-end metric and workload each per-layer metric
should move, and the ``BENCHMARK.json`` derived from it.

Run ``python3 perfbench/catalog.py`` to print the ``BENCHMARK.json`` this
catalog defines.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import SERVE_RATES, WHY, WORKLOADS

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Seconds one run measures.
RUN_SECONDS = 25

#: Gated end-to-end metrics, defined in README.md: printed in the result
#: JSON of every ``--trace 0`` run.  (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("host_us_per_iter", "us/iter", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: Report-only end-to-end metrics: printed by name and unit on the
#: workloads they apply to, not gated.  They vary across seeds with the
#: instances' iteration counts (modeled ones repeat exactly per seed and
#: are pinned by the modeled digest).  (name, unit, better, workloads)
REPORTED = (
    ("lp_per_s", "LP/s", "higher", WORKLOADS),
    ("fail_frac", "fraction", "lower", WORKLOADS),
    ("modeled_s_total", "modeled_s", "lower", WORKLOADS),
    ("gpu_speedup_modeled", "x", "higher", ("dense-paper",)),
    *(
        (f"serve_p95_modeled_ms_r{rate}", "modeled_ms", "lower", ("serve-replay",))
        for rate in SERVE_RATES
    ),
    (f"serve_p50_modeled_ms_r{SERVE_RATES[-1]}", "modeled_ms", "lower", ("serve-replay",)),
    ("serve_max_rate_modeled", "jobs/s", "higher", ("serve-replay",)),
)

#: Kernels whose body time is reported on its own (the others sum into
#: ``gpu.body.other.self_s``).
BODY_KERNELS = (
    "ger", "gemv", "gemv_t", "spmv_csc_t", "spmv_csr", "ftran_lu",
    "btran_lu", "primal_update", "dual_update", "fused",
)

#: What each per-layer metric should move.  Host self times move the
#: host clock: ``host_us_per_iter`` (gated) and ``lp_per_s`` (reported).
_HOST = "host_us_per_iter, lp_per_s"
_DENSE_SERVE = f"{_HOST} on dense-paper, serve-replay"
_EVERYWHERE = f"{_HOST} on every workload"
_SPARSE = f"{_HOST} on sparse-simplex"
_PDLP = f"{_HOST}, modeled_s_total on sparse-pdlp"
_BOOKKEEPING = f"{_HOST} on sparse-pdlp, then serve-replay, least dense-paper"
_BODIES = f"{_HOST} on dense-paper, sparse-pdlp"
_FUSED = f"{_HOST} on dense-paper (fused solves only)"
_MODELED = "modeled_s_total, gpu_speedup_modeled, serve latencies"
_SERVE = f"{_HOST} on serve-replay"
_SERVE_MODELED = "serve_* on serve-replay"

#: Per-layer metrics: printed in the result JSON of every ``--trace 1``
#: run.  (name, unit, better, the end-to-end metric and workload it
#: should move).  Host self times come from the traced pass; counts and
#: modeled values are exact.
PER_LAYER = (
    ("lp.standard_form.calls", "count", "lower", _DENSE_SERVE),
    ("lp.standard_form.self_s", "s", "lower", _DENSE_SERVE),
    ("lp.fingerprint.self_s", "s", "lower", _SERVE),
    ("solve.self_s", "s", "lower", _EVERYWHERE),
    ("engine.begin.self_s", "s", "lower", _EVERYWHERE),
    ("engine.run_phase.self_s", "s", "lower", _EVERYWHERE),
    ("engine.extract.self_s", "s", "lower", _EVERYWHERE),
    ("engine.iterations", "count", "lower", "modeled_s_total on every workload"),
    ("engine.degenerate_frac", "fraction", "lower", "modeled_s_total on every workload"),
    ("engine.refactorizations", "count", "lower", "modeled_s_total on every workload"),
    *(
        (f"simplex.lu.{op}.{kind}", unit, "lower", _SPARSE)
        for op in ("ftran", "btran", "refactorize", "update")
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("firstorder.iterations", "count", "lower", _PDLP),
    ("firstorder.restarts", "count", "lower", _PDLP),
    ("firstorder.spmv_count", "count", "lower", _PDLP),
    ("gpu.body.self_s", "s", "lower", _BODIES),
    *(
        (f"gpu.body.{k}.self_s", "s", "lower", _BODIES)
        for k in (*BODY_KERNELS, "other")
    ),
    ("gpu.launch.calls", "count", "lower", _BOOKKEEPING),
    ("gpu.launch.self_s", "s", "lower", _BOOKKEEPING),
    ("gpu.transfer.calls", "count", "lower", _BOOKKEEPING),
    ("gpu.transfer.self_s", "s", "lower", _BOOKKEEPING),
    ("gpu.plan.section.calls", "count", "lower", _FUSED),
    ("gpu.plan.section.self_s", "s", "lower", _FUSED),
    ("perfmodel.kernel_time.calls", "count", "lower", _BOOKKEEPING),
    ("perfmodel.kernel_time.self_s", "s", "lower", _BOOKKEEPING),
    ("perfmodel.op_time.calls", "count", "lower", f"{_HOST} on the CPU twins (revised, revised-sparse, pdlp)"),
    ("perfmodel.op_time.self_s", "s", "lower", f"{_HOST} on the CPU twins (revised, revised-sparse, pdlp)"),
    ("metrics.instrument.calls", "count", "lower", _BOOKKEEPING),
    ("metrics.instrument.self_s", "s", "lower", _BOOKKEEPING),
    ("gpu.modeled_kernel_s", "modeled_s", "lower", _MODELED),
    ("gpu.modeled_transfer_s", "modeled_s", "lower", _MODELED),
    ("gpu.htod_bytes", "B", "lower", _MODELED),
    ("gpu.dtoh_bytes", "B", "lower", _MODELED),
    ("gpu.flops", "flop", "lower", _MODELED + " (computed from OpCost)"),
    ("gpu.bytes_moved", "B", "lower", _MODELED + " (computed from OpCost)"),
    ("batch.plan.calls", "count", "lower", _SERVE),
    ("batch.plan.self_s", "s", "lower", _SERVE),
    ("batch.from_events.self_s", "s", "lower", _SERVE),
    ("serve.run.self_s", "s", "lower", _SERVE),
    ("serve.submit.self_s", "s", "lower", _SERVE),
    ("serve.cache.self_s", "s", "lower", _SERVE),
    ("serve.cache.hit_ratio", "fraction", "higher", _SERVE_MODELED),
    *(
        (f"serve.{name}.r{rate}", unit, better, _SERVE_MODELED)
        for rate in SERVE_RATES
        for name, unit, better in (
            ("queue_wait_modeled_ms_p50", "modeled_ms", "lower"),
            ("device_util_mean", "fraction", "lower"),
            ("jobs_per_window", "jobs", "higher"),
        )
    ),
    ("trace.overhead_frac", "fraction", "lower", "none: cost of the traced run itself"),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalog defines."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
