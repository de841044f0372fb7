#!/usr/bin/env python
"""Docstring presence checker for the runtime and experiments packages.

A pydocstyle-style structural check without the dependency: every public
module, class, function, and method in the packages below must carry a
docstring.  The bar is deliberately presence-only — the *content* rule
(state units: virtual quanta vs wall seconds; state thread/process
safety where it matters) is enforced by review, but absence is caught
mechanically here and in CI's ``docs`` job.

Usage::

    python tools/check_docstrings.py            # check the default scope
    python tools/check_docstrings.py src/pkg    # check something else

Exit status 0 when every public definition is documented, 1 otherwise
(one ``path:line: message`` per offender on stdout).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: Packages whose public API must be fully documented (repo-relative).
DEFAULT_SCOPE = (
    "src/repro/runtime",
    "src/repro/experiments",
    # The search substrate: the modules the performance docs
    # (docs/PERFORMANCE.md) point readers into.
    "src/repro/core/search.py",
    "src/repro/core/cost.py",
    "src/repro/core/feasibility.py",
    # The phase frame and its hooks (``fill_window``; ``order`` / ``pick`` /
    # ``place`` under the list frame): the extension point a new scheduler
    # implements.
    "src/repro/core/scheduler.py",
    "src/repro/core/baselines.py",
    "src/repro/core/zoo.py",
    # The live master's public lifecycle and the coordinator that drives
    # it (``await_workers`` / ``start_clock`` / ``step`` / ``shutdown`` /
    # ``report``): what replaced the private hooks subclasses overrode.
    "src/repro/cluster/master.py",
    "src/repro/cluster/launcher.py",
    "src/repro/sharding/cluster.py",
)


def is_public(name: str) -> bool:
    """Dunder names count as public (``__init__`` is exempted separately)."""
    return not name.startswith("_") or (
        name.startswith("__") and name.endswith("__")
    )


def iter_missing(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, message)`` for every undocumented public definition."""
    if ast.get_docstring(tree) is None:
        yield 1, "module is missing a docstring"
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if is_public(node.name) and ast.get_docstring(node) is None:
                yield node.lineno, f"class {node.name} is missing a docstring"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # __init__ documents itself through its class; private
            # helpers may self-document through their names.
            if node.name == "__init__" or not is_public(node.name):
                continue
            if ast.get_docstring(node) is None:
                yield (
                    node.lineno,
                    f"function {node.name} is missing a docstring",
                )


def check_paths(roots: List[str]) -> List[str]:
    """All violations under ``roots`` as ``path:line: message`` strings."""
    problems = []
    for root in roots:
        base = Path(root)
        files = sorted(base.rglob("*.py")) if base.is_dir() else [base]
        for path in files:
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for lineno, message in iter_missing(tree):
                problems.append(f"{path}:{lineno}: {message}")
    return problems


def main(argv: List[str]) -> int:
    """CLI entry point; returns the process exit status."""
    roots = argv or list(DEFAULT_SCOPE)
    problems = check_paths(roots)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} public definition(s) missing docstrings")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
