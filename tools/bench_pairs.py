#!/usr/bin/env python
"""Alternating parent/change runs of the repo benchmark, summarised.

Usage, from the repository root::

    python tools/bench_pairs.py --workload sparse-pdlp --parent HEAD~1 \\
        --pairs 10 --seed 1

(``make bench-pairs W=sparse-pdlp PARENT=HEAD~1 N=10 SEED=1`` is the same.)

The parent revision is ``git archive``d into a temporary directory; the
change is this checkout as it stands on disk.  Each pair runs
``perfbench/run.py --trace 0`` once on each side, one run at a time, and
the side that goes first alternates from pair to pair so slow drift of the
host does not favour either side.  For every end-to-end metric of
``BENCHMARK.json`` the report gives each side's median and quartiles, the
change's relative median difference and the number of pairs the change
won, and one verdict (see :func:`verdict`); then every run's
``correct``/``failed`` and both sides' modeled digests (a host-only
change must leave the digest alone).  Each run uses
``perfbench/run.py``'s own run length.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--pairs", type=int, default=10, help="default: %(default)s")
    p.add_argument("--seed", type=int, default=1, help="default: %(default)s")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def export_revision(rev: str, dest: Path) -> None:
    """``git archive`` ``rev`` of this repository into ``dest``."""
    archive = dest / "rev.tar"
    subprocess.run(
        ["git", "archive", "--format=tar", "-o", str(archive), rev],
        cwd=ROOT, check=True,
    )
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()


def run_once(tree: Path, args: argparse.Namespace) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its JSON line
    plus the modeled digest it printed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--trace", "0",
        ],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"bench-pairs: run in {tree} failed ({proc.returncode}):\n"
            + proc.stdout[-2000:] + proc.stderr[-2000:]
        )
    out = json.loads(lines[-1])
    out["digest"] = next(
        (ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("modeled digest:")),
        None,
    )
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(
    parent: list[float], change: list[float], *, lower: bool,
    bound: "float | None",
) -> str:
    """One verdict for one metric over paired runs (``parent[i]`` and
    ``change[i]`` ran as pair ``i``), checked in this order:

    - ``gain``: the change is better in at least 9/10 of the pairs (ties
      count for neither side) and its median is better than the parent's
      by more than the parent's interquartile range;
    - ``worse``: the change's median is worse than the parent's by more
      than ``bound`` (relative to the parent's median);
    - ``unresolved``: the parent's own spread, IQR / median, exceeds
      ``bound``, so a difference within the bound cannot be told from
      noise, unless every change run is better than every parent run;
    - ``no worse``: everything else.

    Without a ``bound`` only ``gain`` and ``no worse`` can be given.
    """
    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    wins = sum(better(c, p) for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    margin = pm - cm if lower else cm - pm  # > 0: the change is better
    if 10 * wins >= 9 * len(change) and margin > p3 - p1:
        return "gain"
    if bound is None or not pm:
        return "no worse"
    if -margin / abs(pm) > bound:
        return "worse"
    best_parent = min(parent) if lower else max(parent)
    if (p3 - p1) / abs(pm) > bound and not all(better(c, best_parent) for c in change):
        return "unresolved"
    return "no worse"


def summarise(metrics: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    lines = []
    pairs = len(runs["change"])
    for spec in metrics:
        name = spec["name"]
        lower = spec.get("better", "lower") == "lower"
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        rel = (cm - pm) / pm if pm else float("nan")
        lines.append(
            f"{name} [{spec.get('unit', '')}, {'lower' if lower else 'higher'} is better]: "
            f"parent median {pm:.6g} (q1 {p1:.6g}, q3 {p3:.6g}, IQR {p3 - p1:.3g}) | "
            f"change median {cm:.6g} (q1 {c1:.6g}, q3 {c3:.6g}, IQR {c3 - c1:.3g}) | "
            f"{100 * rel:+.1f}% | change better in {wins}/{pairs} pairs"
            + (f" | bound {100 * spec['bound']:.0f}%" if "bound" in spec else "")
            + f" | verdict: {verdict(parent, change, lower=lower, bound=spec.get('bound'))}"
        )
    for side in ("parent", "change"):
        digests = sorted({str(r["digest"]) for r in runs[side]})
        status = [(r["correct"], r["failed"]) for r in runs[side]]
        ok = all(c and f == 0 for c, f in status)
        lines.append(
            f"{side}: digests {', '.join(digests)}; "
            f"{'all correct, 0 failed' if ok else 'NOT all correct: ' + str(status)}"
        )
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        export_revision(args.parent, tmp)
        trees = {"parent": tmp / "tree", "change": ROOT}
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], args))
            values = {
                side: {k: v["value"] for k, v in runs[side][-1]["metrics"].items()}
                for side in order
            }
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first): {values}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(
        f"bench-pairs {args.workload} seed={args.seed} parent={args.parent} "
        f"pairs={args.pairs}"
    )
    for line in summarise(metrics, runs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
