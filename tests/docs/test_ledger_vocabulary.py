"""docs/OBSERVABILITY.md's transition list is the ledger's vocabulary.

The way ``test_option_surface.py`` holds the option tables to the code:
a transition the ledger can write without a documented row, or a row
naming a transition nothing writes, fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.runtime import ledger

DOCS = Path(__file__).resolve().parents[2] / "docs"
#: Emitted by the worker processes (``cluster/worker.py``), not a ledger.
WORKER_SIDE = {"exec_started", "exec_finished"}


def section(document: str, heading: str) -> str:
    """The body of one ``##``/``###`` section of a markdown document."""
    text = (DOCS / document).read_text()
    match = re.search(
        rf"^#+ {re.escape(heading)}\n(.*?)(?=^#+ |\Z)", text, re.M | re.S
    )
    assert match, f"{document} has no section {heading!r}"
    return match.group(1)


def table_rows(body: str):
    """Cells of every table row below the header separator."""
    lines = [line for line in body.splitlines() if line.startswith("|")]
    return [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in lines[2:]
    ]


def names(cell: str):
    return re.findall(r"`([a-z_]+)`", cell)


def test_every_transition_has_exactly_one_row():
    rows = table_rows(section("OBSERVABILITY.md", "Task transitions"))
    documented = [name for row in rows for name in names(row[0])]
    assert len(documented) == len(set(documented))
    assert set(documented) - WORKER_SIDE == set(ledger.TRANSITIONS)
    assert WORKER_SIDE <= set(documented)


def test_status_after_column_uses_the_ledgers_statuses():
    statuses = {ledger.PENDING, ledger.DELIVERED, *ledger.TERMINAL}
    rows = table_rows(section("OBSERVABILITY.md", "Task transitions"))
    after = {}
    for row in rows:
        for name in names(row[0]):
            after[name] = set(names(row[2]))
    for cells in after.values():
        assert cells <= statuses, cells
    # A terminal transition leads to the status it is named for ...
    for status, transition in zip(ledger.TERMINAL, ledger.TERMINAL_TRANSITIONS):
        assert status in after[transition]
    # ... a requeue shares its name with the drain's terminal status ...
    assert after[ledger.SURRENDERED] == {
        ledger.PENDING, ledger.SURRENDERED
    }
    # ... both spellings of a placement lead to the one status ...
    for spelling in ledger.PLACED_TRANSITIONS:
        assert after[spelling] == {ledger.DELIVERED}
    # ... and a note changes nothing.
    for note in ledger.NOTE_TRANSITIONS:
        assert after[note] <= {ledger.PENDING}


def test_the_two_spellings_of_a_placement_are_explained():
    body = section("OBSERVABILITY.md", "Task transitions")
    sim, live = ledger.PLACED_TRANSITIONS
    note = re.search(
        rf"`{sim}` \(simulator\) and `{live}` \(live\) are two spellings "
        r"of one\s+step", body,
    )
    assert note, "the delivered/dispatched note is gone"
    assert "recorded traces" in body[note.end():]


def test_architecture_table_covers_every_status_and_method():
    body = section("ARCHITECTURE.md", "The task ledger")
    rows = table_rows(body)
    states = {name for row in rows for name in names(row[0])}
    assert states >= {ledger.PENDING, ledger.DELIVERED, *ledger.TERMINAL}
    methods = {name for row in rows for name in names(row[1])}
    assert methods == {"open", "reject", "place", "requeue", "settle", "release"}
    for method in methods | {"note", "start"}:
        assert callable(getattr(ledger.TaskLedger, method))
    traced = {name for row in rows for name in names(row[4])}
    # (`processor` is a field the requeue row mentions, not a transition.)
    assert traced <= set(ledger.TRANSITIONS) | {
        "submission_rejected", "processor"
    }
    assert traced >= set(ledger.TRANSITIONS) - set(ledger.NOTE_TRANSITIONS)
    for note in ledger.NOTE_TRANSITIONS:
        assert f"`{note}`" in body
