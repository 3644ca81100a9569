"""Per-layer metrics and host-time shares from one traced pass."""

from __future__ import annotations

from perfbench.catalog import BODY_KERNELS, PER_LAYER
from perfbench.workloads import SERVE_RATES, PassResult, percentile

#: Host-time layers, each a set of span-name prefixes.
LAYERS = {
    "lp": ("lp.",),
    "solver control": ("solve", "engine."),
    "sparse LU": ("simplex.lu.",),
    "kernel bodies": ("gpu.body.",),
    "launch bookkeeping": (
        "gpu.launch", "gpu.transfer", "gpu.plan.", "perfmodel.", "metrics.",
    ),
    "batch": ("batch.",),
    "serve": ("serve.",),
}

#: The layer(s) each workload was chosen to load, from its "why".
INTENDED = {
    "dense-paper": ("kernel bodies",),
    "sparse-simplex": ("sparse LU",),
    "sparse-pdlp": ("launch bookkeeping",),
    "serve-replay": ("lp", "batch", "serve"),
}


def layer_of(span_name: str) -> str:
    for layer, prefixes in LAYERS.items():
        if span_name.startswith(prefixes):
            return layer
    raise KeyError(span_name)


def layer_seconds(tracer) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for name, own in tracer.self_by_name().items():
        out[layer_of(name)] += own
    return out


def shares_lines(workload: str, tracer, pass_s: float) -> list[str]:
    """Each layer's share of the traced pass's host time, and whether the
    workload's intended layer is its largest share."""
    secs = layer_seconds(tracer)
    secs["benchmark loop"] = max(0.0, pass_s - tracer.root_seconds())
    ranked = sorted(secs.items(), key=lambda kv: -kv[1])
    lines = [
        "host shares of traced pass: "
        + ", ".join(f"{k} {100 * v / pass_s:.1f}%" for k, v in ranked)
    ]
    intended = INTENDED[workload]
    mine = sum(secs[k] for k in intended)
    others = max(v for k, v in secs.items() if k not in intended)
    verdict = "is" if mine >= others else "is NOT"
    lines.append(
        f"intended layer ({' + '.join(intended)}) {verdict} the largest host "
        f"share: {100 * mine / pass_s:.1f}% vs next {100 * others / pass_s:.1f}%"
    )
    return lines


def per_layer_metrics(tracer, result: PassResult, overhead: float) -> dict:
    """Every catalog per-layer metric: name -> (value, unit)."""
    own = tracer.self_by_name()
    counts = tracer.counts
    recs = result.records
    basis = [r for r in recs if not r.first_order]
    first_order = [r for r in recs if r.first_order]
    gpu = [r for r in recs if r.on_gpu]
    iters = sum(r.iterations for r in basis)
    body = {k: v for k, v in own.items() if k.startswith("gpu.body.")}
    values = {
        "lp.standard_form.calls": counts["lp.standard_form.calls"],
        "lp.standard_form.self_s": own.get("lp.standard_form", 0.0),
        "lp.fingerprint.self_s": own.get("lp.fingerprint", 0.0),
        "solve.self_s": own.get("solve", 0.0),
        "engine.iterations": iters,
        "engine.degenerate_frac": (
            sum(r.degenerate for r in basis) / iters if iters else 0.0
        ),
        "engine.refactorizations": sum(r.refactorizations for r in basis),
        "firstorder.iterations": sum(r.iterations for r in first_order),
        "firstorder.restarts": sum(r.restarts for r in first_order),
        "firstorder.spmv_count": sum(r.spmv_count for r in first_order),
        "gpu.body.self_s": sum(body.values()),
        "gpu.body.other.self_s": sum(
            v for k, v in body.items()
            if k.removeprefix("gpu.body.") not in BODY_KERNELS
        ),
        "gpu.modeled_kernel_s": sum(r.modeled_s - r.transfer_s for r in gpu),
        "gpu.modeled_transfer_s": sum(r.transfer_s for r in gpu),
        "gpu.htod_bytes": counts["gpu.htod_bytes"],
        "gpu.dtoh_bytes": counts["gpu.dtoh_bytes"],
        "gpu.flops": counts["gpu.flops"],
        "gpu.bytes_moved": counts["gpu.bytes_moved"],
        "batch.from_events.self_s": own.get("batch.from_events", 0.0),
        "serve.run.self_s": own.get("serve.run", 0.0),
        "serve.submit.self_s": own.get("serve.submit", 0.0),
        "serve.cache.self_s": own.get("serve.cache", 0.0),
        "trace.overhead_frac": overhead,
    }
    for meth in ("begin", "run_phase", "extract"):
        values[f"engine.{meth}.self_s"] = own.get(f"engine.{meth}", 0.0)
    for kernel in BODY_KERNELS:
        values[f"gpu.body.{kernel}.self_s"] = own.get(f"gpu.body.{kernel}", 0.0)
    for span in (
        *(f"simplex.lu.{op}" for op in ("ftran", "btran", "refactorize", "update")),
        "gpu.launch", "gpu.transfer", "gpu.plan.section",
        "perfmodel.kernel_time", "perfmodel.op_time",
        "metrics.instrument", "batch.plan",
    ):
        values[f"{span}.calls"] = counts[f"{span}.calls"]
        values[f"{span}.self_s"] = own.get(span, 0.0)
    fleet = result.serve
    hits = sum(f["cache_hits"] for f in fleet.values())
    lookups = sum(f["cache_lookups"] for f in fleet.values())
    values["serve.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    for rate in SERVE_RATES:
        waits = [r.queue_s for r in recs if r.rate == rate and r.queue_s is not None]
        f = fleet.get(rate, {})
        values[f"serve.queue_wait_modeled_ms_p50.r{rate}"] = (
            percentile(waits, 0.5) * 1e3 if waits else 0.0
        )
        values[f"serve.device_util_mean.r{rate}"] = f.get("device_util_mean", 0.0)
        values[f"serve.jobs_per_window.r{rate}"] = f.get("jobs_per_window", 0.0)
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    return {name: (float(values[name]), units[name]) for name in units}
