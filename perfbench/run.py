"""Two-clock benchmark of the repro LP stack.

Usage, from the repository root::

    python3 perfbench/run.py --workload dense-paper --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: the timed passes run
untraced, then every LP is checked against scipy's HiGHS.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics;
the traced pass's spans are written under ``perfbench/out/``.  Human-readable
report lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Seeds: the default ``--seed 1`` is the development seed; ``--seed 7919``
is held out, to confirm a claim on inputs not used while writing it.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: the timed pass is
# one process with one client, on a small shared host.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH_DIR / "out"
DEFAULT_SEED = 1
#: Fresh processes timed for ``setup_s`` (``--tiny``: one).
SETUP_SAMPLES = 9

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


def parse_args(argv=None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--tiny", action="store_true",
        help="tiny instances, one set-up sample and spans under out/tiny/, "
        "for the benchmark's own tests",
    )
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro sources under {SRC}; run from a checkout "
            "of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- set-up ------------------------------------------------------------------


def setup_child(workload: str) -> None:
    """Body of one set-up sample: import, warm up, report ready."""
    import repro  # noqa: F401
    from perfbench.workloads import warm_up

    warm_up(workload)
    print("ready", flush=True)


def measure_setup(workload: str, samples: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to it being ready to
    serve, for ``samples`` processes run one after another."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--setup-child",
    ]
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed (exit {code})")
        times.append(elapsed)
    return times


# -- host facts ------------------------------------------------------------------


def host_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- runs ----------------------------------------------------------------------


def timed_passes(workload: str, inputs, seconds: float) -> list:
    """Untraced passes until another would overrun ``seconds`` (at least
    one), with host speed reference samples between the timed units."""
    from perfbench.hostclock import reference_sample
    from perfbench.workloads import run_pass

    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(workload, inputs, reference_sample))
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def end_to_end(args, inputs, out: list[str]):
    from perfbench import workloads as W
    from perfbench.hostclock import REFERENCE_S, scale

    setup_times = measure_setup(args.workload, 1 if args.tiny else SETUP_SAMPLES)
    W.warm_up(args.workload)
    passes = timed_passes(args.workload, inputs, args.seconds)
    rss = peak_rss_mb()
    first = passes[0]
    digests = {W.digest(res) for res in passes}
    n = len(first.records)
    solve_s = [sum(host for host, *_ in res.units) for res in passes]
    refs = [ref for res in passes for *_, ref in res.units]
    ref = statistics.median(refs)
    # The fastest sample (a slow spell only ever adds to set-up time),
    # scaled by the host speed the timed passes measured seconds later:
    # unscaled, the median over ten seeds moved by 31 % between two sets
    # of runs twenty minutes apart.
    setup_s = min(setup_times)
    metrics = {
        "setup_s": (scale(setup_s, ref), "s"),
        "host_us_per_iter": (W.host_us_per_iter(passes), "us/iter"),
        "peak_rss_mb": (rss, "MB"),
    }
    report = {
        "lp_per_s": (statistics.median(n / s for s in solve_s), "LP/s"),
        **W.modeled_metrics(args.workload, first),
    }
    out.append(
        f"passes: {len(passes)} x {n} LPs; host s per pass "
        + ", ".join(f"{s:.3f}" for s in solve_s)
    )
    out.append(
        "setup samples: "
        + ", ".join(f"{t:.3f}" for t in setup_times)
        + f" s; host speed reference {1e3 * ref:.4g} ms "
        f"(median of {len(refs)}; nominal {1e3 * REFERENCE_S:g} ms)"
    )
    return first, metrics, report, len(digests) == 1


def traced(args, inputs, out: list[str]):
    from perfbench import workloads as W
    from perfbench.layers import per_layer_metrics, shares_lines
    from perfbench.tracer import Tracer

    t0 = time.perf_counter()
    plain = W.run_pass(args.workload, inputs)
    plain_s = time.perf_counter() - t0
    with Tracer() as tracer:
        t0 = time.perf_counter()
        result = W.run_pass(args.workload, inputs)
        traced_s = time.perf_counter() - t0
    metrics = per_layer_metrics(tracer, result, traced_s / plain_s - 1.0)
    out.extend(shares_lines(args.workload, tracer, traced_s))
    spans_dir = SPANS_DIR / "tiny" if args.tiny else SPANS_DIR
    spans_dir.mkdir(parents=True, exist_ok=True)
    path = spans_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(path)
    out.append(f"spans: {len(tracer.start)} written to {path.relative_to(ROOT)}")
    return result, metrics, W.digest(plain) == W.digest(result)


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    if args.setup_child:
        setup_child(args.workload)
        return 0

    from perfbench import catalog, oracle
    from perfbench import workloads as W

    lines: list[str] = []
    inputs = W.make_inputs(args.workload, args.seed, tiny=args.tiny)
    if args.trace:
        W.warm_up(args.workload)
        result, metrics, deterministic = traced(args, inputs, lines)
        report = {}
    else:
        result, metrics, report, deterministic = end_to_end(args, inputs, lines)

    refs = oracle.references(W.oracle_problems(args.workload, inputs))
    bad = oracle.mismatches(result.records, refs)
    wrong = [text for text, is_wrong in bad if is_wrong]
    attempted = len(result.records)
    report["fail_frac"] = (len(bad) / attempted, "fraction")

    facts = host_facts()
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        + " ".join(f"{k}={v}" for k, v in facts.items())
    )
    if args.workload == "serve-replay":
        print(
            "open loop on the simulated clock: arrivals are scheduled events, "
            "the generator is never late; latency runs from scheduled arrival"
        )
        for rate, (count, beyond) in W.latency_samples(result).items():
            print(f"  rate {rate}/s: n={count} completed, {beyond} beyond p95")
    for line in lines:
        print(line)
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"modeled digest: {W.digest(result)}")
    if not deterministic:
        print("NOT DETERMINISTIC: modeled results differ between passes")
    print(f"oracle: {attempted - len(bad)}/{attempted} LPs optimal and within tolerance of HiGHS")
    for text, _ in bad:
        print(f"  mismatch: {text}")

    names = {n for n, *_ in (catalog.PER_LAYER if args.trace else catalog.END_TO_END)}
    if names != set(metrics):
        raise RuntimeError(f"metrics differ from the catalog: {sorted(names ^ set(metrics))}")
    print(json.dumps({
        "correct": deterministic and not wrong,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
