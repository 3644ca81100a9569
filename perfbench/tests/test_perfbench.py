"""Tests of the benchmark itself, on tiny instances.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import catalog, oracle
from perfbench import workloads as W
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
METRIC_LINE = re.compile(r"^  (\S+) = (\S+) (\S+)$")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"), "--tiny",
            "--seconds", "0.2", *args,
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def printed_metrics(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        match = METRIC_LINE.match(line)
        if match:
            out[match.group(1)] = match.group(3)
    return out


def test_metric_names_are_well_formed_and_unique():
    names = [n for n, *_ in catalog.END_TO_END]
    names += [n for n, *_ in catalog.REPORTED]
    names += [n for n, *_ in catalog.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert catalog.NAME_RE.fullmatch(name), name


def test_benchmark_json_matches_catalog():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalog.benchmark_json()


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    proc = run_bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    printed = printed_metrics(proc.stdout)
    for name, unit, *_ in catalog.END_TO_END:
        assert printed.get(name) == unit, name
    for name, unit, _, applies in catalog.REPORTED:
        if workload in applies:
            assert printed.get(name) == unit, name
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {n for n, *_ in catalog.END_TO_END}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    assert "modeled digest:" in proc.stdout


def test_traced_run_reports_every_per_layer_metric():
    spans = ROOT / "perfbench" / "out" / "tiny" / "spans-serve-replay-seed1.json.gz"
    spans.unlink(missing_ok=True)
    proc = run_bench("--workload", "serve-replay", "--seed", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["metrics"]) == {n for n, *_ in catalog.PER_LAYER}
    assert result["metrics"]["serve.run.self_s"]["value"] > 0
    assert result["metrics"]["batch.plan.calls"]["value"] > 0
    assert spans.is_file()


def test_traced_self_times_of_one_lp_sum_to_its_root():
    import repro

    lp = W.make_inputs("dense-paper", seed=3, tiny=True)[0]
    with Tracer() as tracer:
        repro.solve(lp, method="gpu-revised", fusion=True)
        repro.solve(lp, method="revised")
    own = tracer.self_times()
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert len(roots) == 2
    for root in roots:
        lp_id = tracer.lp[root]
        total = sum(o for o, lp in zip(own, tracer.lp) if lp == lp_id)
        duration = tracer.end[root] - tracer.start[root]
        assert total == pytest.approx(duration, rel=1e-9, abs=1e-12)
    names = set(tracer.self_by_name())
    assert {"solve", "lp.standard_form", "engine.run_phase", "gpu.launch"} <= names


def test_tracer_restores_every_patched_entry_point():
    import repro
    from repro.gpu.device import Device
    from repro.simplex import common

    before = (repro.solve, Device.launch, common.to_standard_form)
    with Tracer():
        assert repro.solve is not before[0]
        assert common.to_standard_form is not before[2]
    assert (repro.solve, Device.launch, common.to_standard_form) == before


def test_oracle_flags_a_wrong_objective():
    lps = W.make_inputs("sparse-simplex", seed=2, tiny=True)
    result = W.run_pass("sparse-simplex", lps)
    refs = oracle.references(W.oracle_problems("sparse-simplex", lps))
    assert oracle.mismatches(result.records, refs) == []
    result.records[0].objective *= 1.0 + 1e-4
    bad = oracle.mismatches(result.records, refs)
    assert len(bad) == 1
    text, wrong = bad[0]
    assert wrong and result.records[0].instance in text


def test_digest_pins_modeled_results():
    lps = W.make_inputs("dense-paper", seed=4, tiny=True)
    first = W.run_pass("dense-paper", lps)
    assert W.digest(first) == W.digest(W.run_pass("dense-paper", lps))
    first.records[-1].modeled_s = math.nextafter(first.records[-1].modeled_s, 1.0)
    assert W.digest(first) != W.digest(W.run_pass("dense-paper", lps))


def test_inputs_follow_the_seed():
    a = W.make_inputs("dense-paper", seed=5, tiny=True)
    b = W.make_inputs("dense-paper", seed=5, tiny=True)
    c = W.make_inputs("dense-paper", seed=6, tiny=True)
    assert all((x.a == y.a).all() for x, y in zip(a, b))
    assert not all((x.a == y.a).all() for x, y in zip(a, c))


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = run_bench("--workload", "dense-paper", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
