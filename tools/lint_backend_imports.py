#!/usr/bin/env python
"""Lint: architectural import rules, enforced as CI failures.

Five rules, one mechanism (an AST walk over the module trees):

**Backend rule.**  Solver backend modules must not import ``repro.trace``,
``repro.metrics`` or ``repro.obs`` at all.  The engine's observer layer
(:mod:`repro.engine.hooks` for trace records and obs spans,
:mod:`repro.engine.lifecycle` for metrics emission) is the *only* place
solver events leave a backend; a direct import would bypass the observer
protocol and reintroduce the per-solver instrumentation clones the engine
refactor removed.

Checked trees: ``src/repro/simplex/*.py`` (CPU methods),
``src/repro/core/*.py`` (GPU methods) and ``src/repro/firstorder/*.py``
(the PDHG backends).

**Launch rule.**  The GPU solver backends must issue device work through
the launch-plan layer — :mod:`repro.gpu.blas`, the shared kernel modules,
or :func:`repro.gpu.plan.emit` for backend-owned kernels — never by
calling ``Device.launch`` directly.  A direct launch would be invisible to
the planner (no capture, no fusion, no plan-level accounting), silently
splitting the execution path the launch-plan refactor unified.

**Serve rule.**  Serving modules (``src/repro/serve/*.py``) may not import
``repro.trace`` or ``repro.obs``, and may touch the metrics (and span)
layer only through the instrumentation façade ``repro.metrics.instrument``
— never the registry internals or the span recorder directly.  The façade's hooks are no-ops when collection is off, which is
what keeps the serving loop zero-cost by default; importing
``repro.metrics`` itself (or the registry/exporters) from serve code would
couple the service to registry internals and dodge that gate.  Note that
``from repro.metrics import instrument`` also trips the rule: the module
imported there is ``repro.metrics``.  Use
``from repro.metrics.instrument import <hook>``.

**Seam rule.**  A method loop written once for both machines
(``src/repro/firstorder/pdhg.py``, the one PDHG loop) drives a host or a
device executor and may import neither ``repro.gpu`` nor
``repro.perfmodel``: device kernels and cost-model charges belong to the
executors in ``firstorder/gpu.py`` and ``firstorder/cpu.py``.

**Cost rule.**  The device kernel modules that launch on every pivot
(``src/repro/gpu/blas.py``, ``src/repro/core/gpu_kernels.py`` and
``src/repro/gpu/reduce.py``) build launch costs only through the interning
:func:`repro.perfmodel.ops.op_cost`, never by calling ``OpCost(...)``.  A
fresh ``OpCost`` per launch costs a dataclass construction, and the launch
memo then matches it by ``OpCost.__eq__`` instead of by identity, which is
the per-launch overhead the interned costs remove.

Both ``import X`` and ``from X import ...`` forms are rejected, at any
nesting depth (the AST walk sees function-local imports too).  Exit
status 0 = clean, 1 = violations (one line each).

Run via ``make lint`` or ``python tools/lint_backend_imports.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Module prefixes backends may not import (the observer owns them).
FORBIDDEN = ("repro.trace", "repro.metrics", "repro.obs")

#: Directories holding solver backend modules.
BACKEND_DIRS = ("src/repro/simplex", "src/repro/core", "src/repro/firstorder")

#: Directories holding serving modules (metrics via the façade only).
SERVE_DIRS = ("src/repro/serve",)

#: GPU solver backend modules: all device work goes through the plan layer
#: (repro.gpu.blas / shared kernels / repro.gpu.plan.emit), never
#: Device.launch directly.
GPU_BACKENDS = (
    "src/repro/core/gpu_revised_simplex.py",
    "src/repro/core/gpu_tableau_simplex.py",
    "src/repro/core/gpu_bounded_simplex.py",
    "src/repro/core/gpu_sparse_simplex.py",
    "src/repro/firstorder/gpu.py",
)

#: Executor-neutral method loops and the machine layers they may not import.
SEAM_MODULES = ("src/repro/firstorder/pdhg.py",)
SEAM_FORBIDDEN = ("repro.gpu", "repro.perfmodel")

#: Device kernel modules whose launch costs come from the interning
#: ``op_cost``; a bare ``OpCost(...)`` call there is a violation.
COST_MODULES = (
    "src/repro/gpu/blas.py",
    "src/repro/core/gpu_kernels.py",
    "src/repro/gpu/reduce.py",
)

#: The one metrics module serve code may import from.
SERVE_ALLOWED = "repro.metrics.instrument"


def _under(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == pfx or module.startswith(pfx + ".") for pfx in prefixes)


def _is_forbidden(module: str) -> bool:
    return _under(module, FORBIDDEN)


def _is_forbidden_for_serve(module: str) -> bool:
    """Serve modules: repro.trace is out entirely; repro.metrics only via
    the repro.metrics.instrument façade."""
    if module == SERVE_ALLOWED or module.startswith(SERVE_ALLOWED + "."):
        return False
    return _is_forbidden(module)


def _shown(path: Path):
    try:
        return path.relative_to(REPO)
    except ValueError:
        return path


def _imports(path: Path):
    """Yield ``(lineno, module, kind)`` for every absolute import in
    ``path``; ``kind`` is ``"imports"`` or ``"imports from"``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, "imports"
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.level == 0:
                yield node.lineno, node.module, "imports from"


def check_file(path: Path, *, serve: bool = False) -> list[str]:
    """Return one violation message per forbidden import in ``path``."""
    shown = _shown(path)
    forbidden = _is_forbidden_for_serve if serve else _is_forbidden
    role = "serve module" if serve else "backend"
    hint = (
        "import hooks from 'repro.metrics.instrument' instead"
        if serve
        else "use the engine observer hooks instead"
    )
    return [
        f"{shown}:{lineno}: {role} {kind} {module!r} ({hint})"
        for lineno, module, kind in _imports(path)
        if forbidden(module)
    ]


def check_seam(path: Path) -> list[str]:
    """Return one violation per ``repro.gpu`` / ``repro.perfmodel`` import
    in an executor-neutral loop module."""
    shown = _shown(path)
    return [
        f"{shown}:{lineno}: shared loop {kind} {module!r} (machine work "
        "belongs to the host or device executor)"
        for lineno, module, kind in _imports(path)
        if _under(module, SEAM_FORBIDDEN)
    ]


def check_launches(path: Path) -> list[str]:
    """Return one violation per direct ``*.launch(...)`` call in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    shown = _shown(path)
    violations = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "launch"
        ):
            violations.append(
                f"{shown}:{node.lineno}: GPU backend calls Device.launch "
                "directly (emit through repro.gpu.plan.emit or the shared "
                "kernel modules so the planner sees it)"
            )
    return violations


def check_costs(path: Path) -> list[str]:
    """Return one violation per ``OpCost(...)`` construction in ``path``
    (``OpCost.fuse`` and other attribute calls are fine)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    shown = _shown(path)
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if called == "OpCost":
            violations.append(
                f"{shown}:{node.lineno}: kernel module constructs OpCost "
                "per launch (build launch costs with "
                "repro.perfmodel.ops.op_cost)"
            )
    return violations


def run() -> list[str]:
    violations: list[str] = []
    for dirname in BACKEND_DIRS:
        for path in sorted((REPO / dirname).glob("*.py")):
            violations.extend(check_file(path))
    for dirname in SERVE_DIRS:
        for path in sorted((REPO / dirname).glob("*.py")):
            violations.extend(check_file(path, serve=True))
    for filename in GPU_BACKENDS:
        violations.extend(check_launches(REPO / filename))
    for filename in SEAM_MODULES:
        violations.extend(check_seam(REPO / filename))
    for filename in COST_MODULES:
        violations.extend(check_costs(REPO / filename))
    return violations


def main() -> int:
    violations = run()
    for line in violations:
        print(line)
    if violations:
        print(f"lint: {len(violations)} forbidden import(s)")
        return 1
    n_files = sum(
        len(list((REPO / d).glob("*.py")))
        for d in BACKEND_DIRS + SERVE_DIRS
    )
    print(f"lint: ok ({n_files} modules clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
