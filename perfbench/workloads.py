"""The four benchmark workloads: inputs from a seed, warm-up, one pass.

A *pass* runs every LP of a workload once and returns one
:class:`Record` per LP attempted.  Inputs are generated before timing
starts; the program under test only ever receives ``LPProblem`` objects.

- ``dense-paper``: the paper's experiment.  Random dense LPs, m = n, each
  solved by ``revised``, ``gpu-revised`` and fused ``gpu-revised``; closed
  loop, one caller.
- ``sparse-simplex``: random sparse LPs below the ``auto`` crossover,
  solved by ``revised-sparse`` and ``gpu-revised-sparse``; closed loop.
- ``sparse-pdlp``: random sparse LPs at m + n = 750, where ``auto`` routes
  to ``gpu-pdlp``, solved by ``pdlp`` and ``gpu-pdlp``; closed loop.
- ``serve-replay``: one ``synthetic_trace`` (the S1 mix) replayed through a
  4-device x 4-stream ``gpu-revised`` fleet at three fixed modeled
  arrival rates.  Open loop on the simulated clock: arrivals are events at
  their scheduled modeled times, so the generator is never late, and a
  job's latency runs from its scheduled arrival.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
import time

#: Modeled arrival rates (jobs per modeled second) of ``serve-replay``.
SERVE_RATES = (500, 1000, 2000)
#: Modeled p95 latency limit behind ``serve_max_rate_modeled``.
SERVE_P95_LIMIT_S = 0.010
#: Relative objective tolerance against HiGHS, per method family.
TOL_SIMPLEX = 1e-6
TOL_FIRST_ORDER = 1e-4

#: Solve variants per closed-loop workload: (label, method, overrides).
DENSE_VARIANTS = (
    ("revised", "revised", {}),
    ("gpu-revised", "gpu-revised", {}),
    ("gpu-revised+fusion", "gpu-revised", {"fusion": True}),
)
SPARSE_VARIANTS = (
    ("revised-sparse", "revised-sparse", {}),
    ("gpu-revised-sparse", "gpu-revised-sparse", {}),
)
PDLP_VARIANTS = (
    ("pdlp", "pdlp", {}),
    ("gpu-pdlp", "gpu-pdlp", {}),
)
VARIANTS = {
    "dense-paper": DENSE_VARIANTS,
    "sparse-simplex": SPARSE_VARIANTS,
    "sparse-pdlp": PDLP_VARIANTS,
}


@dataclasses.dataclass(frozen=True)
class Spec:
    """Sizes of one workload; ``tiny`` variants keep the tests fast."""

    shapes: tuple  # closed loop: one (m, n) per LP of a pass
    density: float = 1.0
    jobs: int = 0  # serve-replay: trace length


FULL = {
    "dense-paper": Spec(shapes=((256, 256), (512, 512)) * 2),
    "sparse-simplex": Spec(shapes=((240, 360),) * 4, density=0.02),
    "sparse-pdlp": Spec(shapes=((300, 450),), density=0.02),
    "serve-replay": Spec(shapes=(), jobs=200),
}
TINY = {
    "dense-paper": Spec(shapes=((12, 12), (16, 16))),
    "sparse-simplex": Spec(shapes=((20, 30),), density=0.1),
    "sparse-pdlp": Spec(shapes=((20, 30),), density=0.1),
    "serve-replay": Spec(shapes=(), jobs=24),
}

#: Why each workload is in the benchmark, with the host shares one
#: traced run (seed 1) measured against that reason.
WHY = {
    "dense-paper": "the paper's experiment, launch path direct and captured+fused; traced host shares: kernel bodies 40%, solver control 32%, standard form 16%, launch bookkeeping 13%",
    "sparse-simplex": "sparse revised simplex below the auto crossover; traced host shares: sparse LU 74% (the intended layer), solver control 15%, launch bookkeeping 7%",
    "sparse-pdlp": "PDHG at m+n=750, tens of thousands of tiny launches; traced: solver control 46%, kernel bodies 32%, launch bookkeeping 22%, so the intended layer is not the largest",
    "serve-replay": "many small LPs at three open-loop rates, the only modeled queue; traced: solver control 41%, launch bookkeeping 35%, lp+batch+serve 12%, so per-job overhead is not the largest",
}
WORKLOADS = tuple(FULL)


@dataclasses.dataclass
class Record:
    """One LP attempted in a pass."""

    instance: str
    method: str
    status: str
    objective: float
    iterations: int
    modeled_s: float
    first_order: bool = False
    on_gpu: bool = False
    degenerate: int = 0
    refactorizations: int = 0
    restarts: int = 0
    spmv_count: int = 0
    transfer_s: float = 0.0
    #: serve-replay only: modeled finish time and latency of the job.
    finish_s: float | None = None
    latency_s: float | None = None
    queue_s: float | None = None
    #: serve-replay only: arrival rate of the replay.
    rate: int | None = None


@dataclasses.dataclass
class PassResult:
    records: list[Record]
    #: (host seconds, solver iterations, host speed reference seconds
    #: around the unit or None) per timed unit: one solve of a
    #: closed-loop workload, one replay of ``serve-replay`` (iterations
    #: summed over its completed jobs).
    units: list[tuple[float, int, float | None]]
    #: serve-replay only: per-rate fleet accounting.
    serve: dict = dataclasses.field(default_factory=dict)


def host_us_per_iter(passes: list[PassResult]) -> float:
    """Host microseconds per solver iteration (simplex pivots, PDHG
    iterations) at the nominal host speed: each unit's host time per
    iteration is scaled by the reference samples taken around it, the
    median over passes is taken per unit, and the geometric mean over
    units.

    Iteration counts vary several-fold between random instances, and host
    time with them; per iteration, a unit's host time varies far less, so
    the figure is steady across seeds where plain totals are not.
    Iterations are the algorithm's own count, so a change to the cost
    model or to modeled time cannot move the figure.  Scaling each unit by
    the reference samples around it follows the shared host's drift
    within a run, and a median, unlike a minimum, does not drift with the
    number of passes that fit in a run."""
    from perfbench.hostclock import scale

    per_pass = [
        [scale(host / max(1, iters), ref) for host, iters, ref in p.units]
        for p in passes
    ]
    logs = [math.log(statistics.median(unit)) for unit in zip(*per_pass)]
    return 1e6 * math.exp(sum(logs) / len(logs))


def _record(instance: str, label: str, result) -> Record:
    extra = result.extra
    first_order = label.endswith("pdlp")
    return Record(
        instance=instance,
        method=label,
        status=result.status.value,
        objective=float(result.objective),
        iterations=int(result.iterations.total_iterations),
        modeled_s=float(result.timing.modeled_seconds),
        first_order=first_order,
        on_gpu=label.startswith("gpu-"),
        degenerate=int(result.iterations.degenerate_steps),
        refactorizations=int(result.iterations.refactorizations),
        restarts=int(extra.get("restarts", 0)) if first_order else 0,
        spmv_count=int(extra.get("spmv_count", 0)) if first_order else 0,
        transfer_s=float(result.timing.transfer_seconds),
    )


# -- inputs ---------------------------------------------------------------


def make_inputs(workload: str, seed: int, tiny: bool = False):
    """The workload's inputs for ``seed``: a list of LPs, or for
    ``serve-replay`` one trace per arrival rate (same jobs, scaled
    arrival times)."""
    from repro.lp.generators import random_dense_lp, random_sparse_lp
    from repro.serve import synthetic_trace

    spec = (TINY if tiny else FULL)[workload]
    if workload == "serve-replay":
        return {
            rate: synthetic_trace(
                n_jobs=spec.jobs, seed=seed, mean_interarrival=1.0 / rate
            )
            for rate in SERVE_RATES
        }
    lps = []
    for i, (m, n) in enumerate(spec.shapes):
        lp_seed = seed * 1000 + i
        name = f"{workload}-{m}x{n}-s{lp_seed}"
        if workload == "dense-paper":
            lps.append(random_dense_lp(m, n, seed=lp_seed, name=name))
        else:
            lps.append(
                random_sparse_lp(m, n, density=spec.density, seed=lp_seed, name=name)
            )
    return lps


def oracle_problems(workload: str, inputs) -> dict:
    """Every distinct LP of the inputs, by instance name."""
    if workload == "serve-replay":
        trace = inputs[SERVE_RATES[0]]
        return {_job_name(i, e.problem): e.problem for i, e in enumerate(trace)}
    return {lp.name: lp for lp in inputs}


def _job_name(index: int, problem) -> str:
    return f"job{index}:{problem.name}"


# -- set-up -----------------------------------------------------------------


def warm_up(workload: str) -> None:
    """One tiny solve per method the workload uses (or, for serve, a tiny
    replay through a server built like the measured one), so lazy imports
    and first-call costs land in set-up rather than in the timed pass."""
    import repro
    from repro.lp.generators import random_dense_lp, random_sparse_lp

    if workload == "serve-replay":
        from repro.serve import synthetic_trace

        serve_pass({SERVE_RATES[0]: synthetic_trace(n_jobs=4, seed=0)})
        return
    lp = (
        random_dense_lp(6, 6, seed=0)
        if workload == "dense-paper"
        else random_sparse_lp(8, 12, density=0.25, seed=0)
    )
    for _, method, overrides in VARIANTS[workload]:
        repro.solve(lp, method=method, **overrides)


# -- one pass ---------------------------------------------------------------


def _bracketing(reference):
    """A callable giving, after each timed unit, the host speed around it:
    the mean of the ``reference`` samples taken just before and just
    after it (consecutive units share a sample).  ``None`` throughout
    without a reference."""
    if reference is None:
        return lambda: None
    last = reference()

    def around() -> float:
        nonlocal last
        now = reference()
        mean = (last + now) / 2
        last = now
        return mean

    return around


def run_pass(workload: str, inputs, reference=None) -> PassResult:
    """Run every LP of the inputs once.  ``reference``, when given, is
    a host speed reference sampler called between timed units, outside
    their timing; each unit keeps the speed measured around it."""
    if workload == "serve-replay":
        return serve_pass(inputs, reference)
    import repro

    around = _bracketing(reference)
    records, units = [], []
    for lp in inputs:
        for label, method, overrides in VARIANTS[workload]:
            t0 = time.perf_counter()
            # Looked up per call, so a traced run's wrapper is the one used.
            result = repro.solve(lp, method=method, **overrides)
            host_s = time.perf_counter() - t0
            rec = _record(lp.name, label, result)
            units.append((host_s, rec.iterations, around()))
            records.append(rec)
    return PassResult(records, units)


def serve_pass(traces: dict, reference=None) -> PassResult:
    from repro.serve import ServeConfig, serve_trace
    from repro.serve.job import JobState

    config = ServeConfig(n_devices=4, n_streams=4, method="gpu-revised")
    around = _bracketing(reference)
    records: list[Record] = []
    units = []
    fleet: dict = {}
    for rate, trace in traces.items():
        t0 = time.perf_counter()
        report = serve_trace(trace, config)
        host_s = time.perf_counter() - t0
        ref_s = around()
        for i, job in enumerate(report.jobs):
            name = _job_name(i, job.problem)
            if job.state is JobState.COMPLETED and job.result is not None:
                rec = _record(name, config.method, job.result)
                rec.finish_s = float(job.finish_time)
                rec.latency_s = float(job.latency_seconds)
                rec.queue_s = float(job.queue_seconds)
            else:
                rec = Record(
                    instance=name, method=config.method,
                    status=job.state.value, objective=math.nan,
                    iterations=0, modeled_s=0.0,
                )
            rec.rate = rate
            records.append(rec)
        iters = sum(r.iterations for r in records if r.rate == rate)
        units.append((host_s, iters, ref_s))
        utils = list(report.device_utilization().values())
        dispatches = sum(dev.dispatches for dev in report.devices)
        fleet[rate] = {
            "span_s": float(report.span_seconds),
            "rejected": len(report.rejected),
            "expired": len(report.expired),
            "cache_hits": report.cache.hits,
            "cache_lookups": report.cache.hits + report.cache.misses,
            "device_util_mean": sum(utils) / len(utils),
            "jobs_per_window": len(report.completed) / max(1, dispatches),
        }
    return PassResult(records, units, fleet)


# -- modeled results -----------------------------------------------------------


def digest(result: PassResult) -> str:
    """Hash of the modeled results: objectives as ``float.hex``, iteration
    counts, modeled seconds and serve finish times.  A host-only change
    must leave it bit-identical."""
    h = hashlib.sha256()
    for r in result.records:
        finish = "-" if r.finish_s is None else float(r.finish_s).hex()
        h.update(
            f"{r.instance}|{r.method}|{r.rate}|{r.status}|"
            f"{float(r.objective).hex()}|{r.iterations}|"
            f"{float(r.modeled_s).hex()}|{finish}\n".encode()
        )
    return h.hexdigest()[:16]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    import numpy as np

    return float(np.quantile(np.asarray(values), q)) if values else math.nan


def modeled_metrics(workload: str, result: PassResult) -> dict:
    """The modeled end-to-end metrics of one pass: name -> (value, unit).
    They repeat exactly for a given seed."""
    recs = result.records
    out = {"modeled_s_total": (sum(r.modeled_s for r in recs), "modeled_s")}
    if workload == "dense-paper":
        cpu = sum(r.modeled_s for r in recs if r.method == "revised")
        gpu = sum(r.modeled_s for r in recs if r.method == "gpu-revised")
        out["gpu_speedup_modeled"] = (cpu / gpu if gpu else math.nan, "x")
    if workload == "serve-replay":
        best = 0
        for rate in SERVE_RATES:
            lat = [r.latency_s for r in recs if r.rate == rate and r.latency_s is not None]
            p95 = percentile(lat, 0.95)
            out[f"serve_p95_modeled_ms_r{rate}"] = (p95 * 1e3, "modeled_ms")
            fleet = result.serve.get(rate, {})
            clean = not fleet.get("rejected") and not fleet.get("expired")
            if clean and len(lat) == sum(r.rate == rate for r in recs) and p95 <= SERVE_P95_LIMIT_S:
                best = rate
        lat = [r.latency_s for r in recs if r.rate == SERVE_RATES[-1] and r.latency_s is not None]
        out[f"serve_p50_modeled_ms_r{SERVE_RATES[-1]}"] = (
            percentile(lat, 0.5) * 1e3, "modeled_ms"
        )
        out["serve_max_rate_modeled"] = (float(best), "jobs/s")
    return out


def latency_samples(result: PassResult) -> dict:
    """Completed-job count per rate and how many lie beyond the p95."""
    out = {}
    for rate in SERVE_RATES:
        lat = [r.latency_s for r in result.records if r.rate == rate and r.latency_s is not None]
        p95 = percentile(lat, 0.95)
        out[rate] = (len(lat), sum(v > p95 for v in lat))
    return out
