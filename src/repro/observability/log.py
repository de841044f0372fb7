"""Structured logging with bound context, on stdlib only.

A :class:`StructuredLogger` writes one line per record::

    12:03:44 INFO repro.experiments cell done scheduler=rtsads seed=1998 hit_percent=91.2

``bind(**context)`` returns a child logger whose context fields are appended
to every record — the run/phase binding the experiment harness uses so a
progress line always says *which* cell it belongs to.  Levels follow the
stdlib numeric convention (DEBUG=10 ... ERROR=40, OFF above ERROR); records
below the logger's level are dropped before any string is built.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, Optional, TextIO

DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40
OFF = 100

_LEVEL_NAMES = {DEBUG: "DEBUG", INFO: "INFO", WARNING: "WARNING", ERROR: "ERROR"}
_NAMES_TO_LEVELS = {name: level for level, name in _LEVEL_NAMES.items()}
_NAMES_TO_LEVELS["OFF"] = OFF


def parse_level(level: "int | str") -> int:
    """Accept either a numeric level or a name like ``"info"``."""
    if isinstance(level, int):
        return level
    try:
        return _NAMES_TO_LEVELS[level.upper()]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; choose from "
            f"{sorted(_NAMES_TO_LEVELS)}"
        ) from None


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    text = str(value)
    if " " in text or "=" in text:
        return repr(text)
    return text


class StructuredLogger:
    """Leveled key=value logger; children share the parent's stream + level.

    The level lives in a one-element mutable cell shared by the whole
    ``bind`` tree, so raising verbosity on the root (``set_level``) takes
    effect on every bound child the harness has already created.
    """

    __slots__ = ("name", "context", "_stream", "_level_cell")

    def __init__(
        self,
        name: str = "repro",
        level: "int | str" = WARNING,
        stream: Optional[TextIO] = None,
        context: Optional[Dict[str, object]] = None,
        _level_cell: Optional[list] = None,
    ) -> None:
        self.name = name
        self.context = dict(context or {})
        self._stream = stream
        self._level_cell = (
            _level_cell if _level_cell is not None else [parse_level(level)]
        )

    @property
    def level(self) -> int:
        return self._level_cell[0]

    def set_level(self, level: "int | str") -> None:
        self._level_cell[0] = parse_level(level)

    @property
    def stream(self) -> TextIO:
        return self._stream if self._stream is not None else sys.stderr

    def bind(self, **context: object) -> "StructuredLogger":
        """Child logger with ``context`` appended to every record."""
        merged = dict(self.context)
        merged.update(context)
        return StructuredLogger(
            name=self.name,
            stream=self._stream,
            context=merged,
            _level_cell=self._level_cell,
        )

    def log(self, level: int, message: str, **fields: object) -> None:
        if level < self._level_cell[0]:
            return
        parts = [
            time.strftime("%H:%M:%S"),
            _LEVEL_NAMES.get(level, str(level)),
            self.name,
            message,
        ]
        for key, value in {**self.context, **fields}.items():
            parts.append(f"{key}={_format_value(value)}")
        self.stream.write(" ".join(parts) + "\n")

    def debug(self, message: str, **fields: object) -> None:
        self.log(DEBUG, message, **fields)

    def info(self, message: str, **fields: object) -> None:
        self.log(INFO, message, **fields)

    def warning(self, message: str, **fields: object) -> None:
        self.log(WARNING, message, **fields)

    def error(self, message: str, **fields: object) -> None:
        self.log(ERROR, message, **fields)
