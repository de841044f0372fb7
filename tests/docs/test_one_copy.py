"""The one-copy laws: each idea of the program is spelled in one place.

Every law reads the syntax tree of every module under ``src/repro``, so a
comment or a docstring never trips one, and a second copy fails a local
test run rather than a CI step.  A law names where its idea lives and
refuses a second spelling anywhere else.  A name retired with a second
copy stays retired: defined again, it would import fine, so a law refuses
it by name.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@lru_cache(maxsize=1)
def modules() -> Dict[str, ast.Module]:
    """Every module of the package, by path relative to ``src/repro``."""
    return {
        path.relative_to(SRC).as_posix(): ast.parse(
            path.read_text(encoding="utf-8"), str(path)
        )
        for path in sorted(SRC.rglob("*.py"))
    }


def nodes(*kinds) -> Iterator[Tuple[str, ast.AST]]:
    """``(module path, node)`` for every node of the given kinds."""
    for path, tree in modules().items():
        for node in ast.walk(tree):
            if isinstance(node, kinds):
                yield path, node


def name_of(node: ast.AST) -> Optional[str]:
    """What a callee or a base class is called: ``f`` / ``x.f`` -> ``f``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def calls_to(name: str, outside: Tuple[str, ...] = ()) -> List[str]:
    """Where ``name(...)`` is called, except in the ``outside`` modules."""
    return [
        f"{path}:{call.lineno}"
        for path, call in nodes(ast.Call)
        if name_of(call.func) == name and path not in outside
    ]


def is_attribute(node: ast.AST, attr: str, of: Optional[str] = None) -> bool:
    """``node`` is ``<x>.attr`` (with ``x`` itself named ``of``, if given)."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and (of is None or name_of(node.value) == of)
    )


def identifier(node: ast.AST) -> str:
    """The name a node spells, if it spells one (strings and comments don't)."""
    for field in ("id", "attr", "arg", "asname", "name"):
        value = getattr(node, field, None)
        if isinstance(value, str):
            return value
    return ""


def iterated(node: ast.AST) -> Optional[ast.AST]:
    """What a ``for`` loop or a comprehension clause iterates over."""
    if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
        return node.iter
    return None


# ----- one cell engine ---------------------------------------------------------

SWEEP = "experiments/sweep.py"


def test_one_cell_engine():
    """A serial run is ``run_grid`` at one job, not a second loop chosen
    elsewhere; only the engine iterates a config's seeds; how a
    repetition departs from its config is a ``SimBackend`` variant, named
    only where it is built and consumed; a table is rows of specs."""
    bad = []
    for path, node in nodes(ast.BoolOp):
        first = node.values[0]
        if (
            path != SWEEP
            and isinstance(node.op, ast.Or)
            and isinstance(first, ast.Compare)
            and name_of(first.left) == "jobs"
            and isinstance(first.ops[0], ast.Gt)
        ):
            bad.append(f"{path}:{node.lineno}: jobs > ... or")
    for path, node in nodes(ast.For, ast.AsyncFor, ast.comprehension):
        source = iterated(node)
        if (
            path != SWEEP
            and isinstance(source, ast.Call)
            and is_attribute(source.func, "seeds")
        ):
            bad.append(f"{path}:{getattr(node, 'lineno', source.lineno)}: seeds()")
    allowed = ("experiments/figures.py", "experiments/runner.py", "runtime/sim.py")
    for path, node in nodes(ast.AST):
        name = identifier(node)
        if (
            ("evaluator" in name or "quantum_policy" in name)
            and not path.startswith("core/")
            and path not in allowed
        ):
            bad.append(f"{path}:{getattr(node, 'lineno', '?')}: {name}")
    bad += [
        f"{path}:{call.lineno}: rows.append"
        for path, call in nodes(ast.Call)
        if path == "experiments/extensions.py"
        and is_attribute(call.func, "append", of="rows")
    ]
    assert bad == []


# ----- one task ledger ---------------------------------------------------------

LEDGER = "runtime/ledger.py"


def test_one_task_ledger():
    """A task event is spelled by the ledger's methods (the worker's own
    ``exec_*`` events are another process's), a report's counted fields
    are read off ledgers by its one constructor, and only the ledger moves
    a record from one status to the next."""
    bad = [
        f"{path}:{call.lineno}: emit('task', ...)"
        for path, call in nodes(ast.Call)
        if name_of(call.func) == "emit"
        and call.args
        and isinstance(call.args[0], ast.Constant)
        and call.args[0].value == "task"
        and path not in (LEDGER, "cluster/worker.py")
    ]
    bad += calls_to("RunReport", outside=("runtime/report.py",))
    for path, node in nodes(ast.Assign, ast.AnnAssign):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        status_like = (
            isinstance(value, ast.Constant) and isinstance(value.value, str)
        ) or (isinstance(value, ast.Name) and value.id[:1].isupper())
        if (
            path != LEDGER
            and status_like
            and any(is_attribute(target, "status") for target in targets)
        ):
            bad.append(f"{path}:{node.lineno}: .status = ...")
    assert bad == []


# ----- one admission state -----------------------------------------------------


def test_one_admission_state():
    """The service front keeps what is queued at each record's transitions
    (``AdmissionState``): only its drain's ``surrender`` walks the
    master's records."""
    bad = []

    def records(node: ast.AST) -> bool:
        return is_attribute(node, "records", of="master")

    def visit(node: ast.AST, exempt: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            exempt = exempt or node.name == "surrender"
        walked = (
            (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("values", "items", "keys")
                and records(node.func.value)
            )
            or (iterated(node) is not None and records(iterated(node)))
            or (
                isinstance(node, ast.Call)
                and name_of(node.func) in ("list", "sorted", "tuple", "set")
                and node.args
                and records(node.args[0])
            )
        )
        if walked and not exempt:
            bad.append(f"service/master.py:{getattr(node, 'lineno', '?')}")
        for child in ast.iter_child_nodes(node):
            visit(child, exempt)

    visit(modules()["service/master.py"], exempt=False)
    assert bad == []


# ----- one master class --------------------------------------------------------


def test_one_master_class():
    """Every live run steps a plain ``ClusterMaster``; the service attaches
    to it as a front, never as a subclass."""
    bad = [
        f"{path}:{node.lineno}: class {node.name}"
        for path, node in nodes(ast.ClassDef)
        if any(name_of(base) == "ClusterMaster" for base in node.bases)
    ]
    assert bad == []


# ----- one EDF key -------------------------------------------------------------


def test_one_edf_key():
    """``(deadline, task_id)`` is ``core.task.edf_key``: a lambda respelling
    it sorts without recognising a batch's own order.  The frozen reference
    keeps its own, as the differential oracle."""
    bad = []
    for path, node in nodes(ast.Lambda):
        arguments = node.args.args
        body = node.body
        if (
            path != "core/reference.py"
            and len(arguments) == 1
            and isinstance(body, ast.Tuple)
            and len(body.elts) == 2
            and is_attribute(body.elts[0], "deadline", of=arguments[0].arg)
            and is_attribute(body.elts[1], "task_id", of=arguments[0].arg)
        ):
            bad.append(f"{path}:{node.lineno}")
    assert bad == []


# ----- one projection ----------------------------------------------------------


def test_one_projection():
    """Every host view renames affinities through ``core/affinity.py``'s
    ``Projection``; nothing else builds a task with a new affinity."""
    bad = [
        f"{path}:{call.lineno}: replace(..., affinity=...)"
        for path, call in nodes(ast.Call)
        if name_of(call.func) == "replace"
        and any(kw.arg == "affinity" for kw in call.keywords)
        and path != "core/affinity.py"
    ]
    assert bad == []


# ----- one migration path ------------------------------------------------------


def test_one_migration_path():
    """Both backends offer leftovers through ``sharding/migration.py``'s one
    round, and only that round counts an offer."""
    assert calls_to("record_offer", outside=("sharding/migration.py",)) == []


# ----- retired names -----------------------------------------------------------

#: Names of second copies that were removed, each with the law that replaced
#: it: the projection's task renamers, the service's record and lifecycle
#: hooks (one master class), the migration frames and reply pump (one
#: migration path), and the sweep cell cache (one cell engine, which
#: recomputes every cell).
RETIRED = (
    "project_tasks",
    "remap_tasks",
    "ServiceTaskRecord",
    "_after_requeue",
    "_before_phase",
    "on_settled",
    "MIGRATE_OFFER",
    "MIGRATE_ACCEPT",
    "MIGRATE_DECLINE",
    "migrate_offer",
    "_await_reply",
    "OFFER_TIMEOUT_SECONDS",
    "record_timeout",
    "SweepCache",
    "config_digest",
    "CACHE_SCHEMA_VERSION",
    "cache_fields",
)


def test_retired_names_stay_retired():
    """No identifier, and no string (a frame kind, a docstring), spells a
    retired name."""
    spelled = re.compile(r"\b(?:%s)\b" % "|".join(RETIRED))
    bad = []
    for path, node in nodes(ast.AST):
        # Every name a node spells: an import's own name and its alias too.
        fields = ("id", "attr", "arg", "asname", "name", "value")
        for text in (getattr(node, field, None) for field in fields):
            if isinstance(text, str) and spelled.search(text):
                bad.append(f"{path}:{getattr(node, 'lineno', '?')}: {text[:40]!r}")
    assert bad == []


# ----- one phase frame ---------------------------------------------------------


def test_one_phase_frame():
    """``plan_quantum``, ``schedule_phase`` and the metrics call live once,
    in ``core/scheduler.py::Scheduler``; a scheduler is a ``fill_window``
    hook."""
    defined = [(path, node.name) for path, node in nodes(ast.FunctionDef)]
    for name in ("plan_quantum", "schedule_phase"):
        assert [p for p, n in defined if n == name] == ["core/scheduler.py"]
    called = [where.split(":")[0] for where in calls_to("record_phase_metrics")]
    assert called == ["core/scheduler.py"]


# ----- one phase-trace writer --------------------------------------------------


def test_one_phase_trace_writer():
    """A ``PhaseTrace`` is built by the driver alone: a phase the frame ran
    and a phase a runtime stepped are recorded by the same code."""
    assert calls_to("PhaseTrace", outside=("runtime/driver.py",)) == []
