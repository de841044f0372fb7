"""The "Option surface" tables of docs/ARCHITECTURE.md match the code.

One row per field of the four config dataclasses and per row of the flag
table, each saying who needs the option; a field or flag added later
without a row fails here.  Also: a flag shared by two parsers is the same
flag in both, and every command line the docs print still parses.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import shlex
from pathlib import Path

import pytest

from repro.cluster.config import ClusterConfig
from repro.experiments.cli import FLAGS, build_parser
from repro.experiments.config import ExperimentConfig
from repro.experiments.service_cli import build_load_parser, build_serve_parser
from repro.experiments.trace_cli import build_trace_parser
from repro.service.config import ServiceConfig
from repro.service.load import LoadSpec

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
CONFIGS = (ExperimentConfig, ClusterConfig, ServiceConfig, LoadSpec)


def _section(text: str, heading: str) -> str:
    """The body of one ``## heading`` / ``### heading`` section."""
    level = heading.split(" ", 1)[0]
    start = text.index(heading + "\n") + len(heading)
    nxt = re.search(rf"^#{{1,{len(level)}}} ", text[start:], re.M)
    return text[start : start + nxt.start()] if nxt else text[start:]


def _rows(section: str) -> dict:
    """``{first backticked name: last cell}`` of a section's table rows."""
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        name = re.match(r"`([^`]+)`", cells[0])
        if line.startswith("|") and name:
            assert name.group(1) not in rows, f"duplicate row {name.group(1)}"
            rows[name.group(1)] = cells[-1]
    return rows


ARCHITECTURE = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
SURFACE = _section(ARCHITECTURE, "## Option surface")
FIELD_ROWS = _rows(_section(SURFACE, "### Config fields"))
FLAG_ROWS = _rows(_section(SURFACE, "### Flags"))

#: Experiment ids DESIGN.md §4 declares (E1, A3, X5, ...).
EXPERIMENT_IDS = set(
    re.findall(
        r"^\| ([EAX]\d+):",
        _section((REPO_ROOT / "DESIGN.md").read_text(),
                 "## 4. Per-experiment index (every table/figure in the "
                 "evaluation)"),
        re.M,
    )
)


class TestTableCoversTheCode:
    def test_one_row_per_config_field(self):
        fields = {
            f"{config.__name__}.{field.name}"
            for config in CONFIGS
            for field in dataclasses.fields(config)
        }
        assert set(FIELD_ROWS) == fields

    def test_one_row_per_flag(self):
        primary = {flag.options[0] for flag in FLAGS.values()}
        assert len(primary) == len(FLAGS)
        assert set(FLAG_ROWS) == primary

    def test_the_stated_field_counts_are_the_real_ones(self):
        for config in CONFIGS:
            count = len(dataclasses.fields(config))
            assert re.search(
                rf"`{config.__name__}` {count}\b", SURFACE
            ), f"{config.__name__} has {count} fields; the table says otherwise"

    @pytest.mark.parametrize(
        "name,needed_by", sorted({**FIELD_ROWS, **FLAG_ROWS}.items())
    )
    def test_every_row_names_who_needs_it(self, name, needed_by):
        assert EXPERIMENT_IDS >= {"E1", "A1", "X1", "X5", "X6"}
        named = set(re.findall(r"\b[EAX]\d+\b", needed_by))
        assert named <= EXPERIMENT_IDS, f"{name}: unknown id in {needed_by!r}"
        assert (
            named
            or "deployment" in needed_by
            or "frozen: benchmarks/e2e" in needed_by
        ), f"{name}: nobody needs it? {needed_by!r}"


def _actions(parser: argparse.ArgumentParser) -> dict:
    """``{dest: action}`` of a parser and its subparsers."""
    actions = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                actions.update(_actions(sub))
        elif not isinstance(action, argparse._HelpAction):
            actions[action.dest] = action
    return actions


PARSERS = {
    "repro": build_parser(),
    "repro serve": build_serve_parser(),
    "repro load": build_load_parser(),
    "repro trace": build_trace_parser(),
}


class TestOneFlagOneDefinition:
    def test_every_parser_flag_is_a_table_row(self):
        for parser in PARSERS.values():
            assert set(_actions(parser)) <= set(FLAGS)

    def test_every_table_row_is_used_by_some_parser(self):
        used = set().union(*(_actions(p) for p in PARSERS.values()))
        assert used == set(FLAGS)

    def test_a_shared_flag_is_the_same_flag_everywhere(self):
        seen = {}
        for command, parser in PARSERS.items():
            for dest, action in _actions(parser).items():
                facts = (
                    action.option_strings, action.type, action.choices,
                    action.help, action.default,
                )
                first_command, first = seen.setdefault(dest, (command, facts))
                assert facts == first, (
                    f"--{dest} differs between {first_command} and {command}"
                )


def _documented_commands():
    """``(source, argv)`` for every ``python -m repro.experiments ...`` /
    ``repro ...`` line inside a fenced block of the user-facing docs."""
    sources = ["README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"]
    for source in sources:
        text = (REPO_ROOT / source).read_text().replace("\\\n", " ")
        fenced = False
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("```"):
                fenced = not fenced
                continue
            if not fenced:
                continue
            line = re.sub(r"^(\w+=\S+\s+)+", "", line)  # PYTHONPATH=src
            line = re.sub(r"^timeout \d+ ", "", line)
            match = re.match(
                r"(?:python3? -m repro\.experiments|repro)\s+(.*)", line
            )
            if match:
                command = re.split(r"\s[|>]|\s2>|\s#\s", match.group(1))[0]
                yield source, shlex.split(command)


COMMANDS = list(_documented_commands())


class TestDocumentedCommandsParse:
    def test_the_docs_print_commands(self):
        assert len(COMMANDS) > 30
        sources = {source for source, _ in COMMANDS}
        assert sources == {
            "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"
        }

    @pytest.mark.parametrize(
        "source,argv", COMMANDS, ids=[" ".join(a)[:60] for _, a in COMMANDS]
    )
    def test_command_parses(self, source, argv):
        """Parsed, not run: ``<PORT>``-style placeholders get a stand-in."""
        argv = [re.sub(r"^<\w+>$", "1", word) for word in argv]
        routed = {
            "serve": PARSERS["repro serve"],
            "load": PARSERS["repro load"],
            "trace": PARSERS["repro trace"],
        }
        if argv[0] in routed:
            routed[argv[0]].parse_args(argv[1:])
        else:
            PARSERS["repro"].parse_args(argv)
