"""Oracle check: every solved LP against scipy's HiGHS.

Runs outside the timed pass.  An LP attempt passes when it ended OPTIMAL
and its objective is within the method family's relative tolerance of
HiGHS's optimum (``|obj - ref| / max(1, |ref|)``); anything else —
another status, a rejected or expired serve job, HiGHS finding no optimum
— is a failure, listed by instance name.
"""

from __future__ import annotations

from perfbench.workloads import TOL_FIRST_ORDER, TOL_SIMPLEX, Record


def references(problems: dict) -> dict:
    """HiGHS optimum (``None`` when HiGHS finds none) per instance name."""
    from repro.bench.harness import scipy_reference

    return {name: scipy_reference(lp) for name, lp in problems.items()}


def mismatches(records: list[Record], refs: dict) -> list[tuple[str, bool]]:
    """One ``(description, wrong_answer)`` per LP attempt that fails the
    oracle check; ``wrong_answer`` marks a solve that claimed OPTIMAL
    with an objective HiGHS does not confirm."""
    from repro.bench.harness import relative_error

    bad = []
    for r in records:
        where = f"{r.instance} [{r.method}" + (f" @{r.rate}/s]" if r.rate else "]")
        ref = refs.get(r.instance)
        if r.status != "optimal":
            bad.append((f"{where}: status {r.status}", False))
        elif ref is None:
            bad.append(
                (f"{where}: HiGHS found no optimum, solver says {r.objective!r}", True)
            )
        else:
            tol = TOL_FIRST_ORDER if r.first_order else TOL_SIMPLEX
            err = relative_error(r.objective, ref)
            if not err <= tol:
                bad.append((
                    f"{where}: objective {r.objective!r} vs HiGHS {ref!r} "
                    f"(rel err {err:.2e} > {tol:g})",
                    True,
                ))
    return bad
