"""The one lazy name registry behind schedulers and execution backends.

Built-in entries are declared as ``name -> module that registers it on
import`` and load on first use: naming ``"rtsads"`` must not import the
scheduler zoo, and naming ``"sim"`` must not drag sockets into a
simulation-only process.  Third parties :meth:`~Registry.register` their
own entry and every experiment, figure and CLI flag can sweep the name.
"""

from __future__ import annotations

import importlib
from typing import Dict, Generic, Mapping, Tuple, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """Entries of one ``kind`` by name; built-ins import on first lookup."""

    def __init__(self, kind: str, builtin_modules: Mapping[str, str]) -> None:
        self.kind = kind
        self._builtin_modules = dict(builtin_modules)
        self._entries: Dict[str, T] = {}

    @property
    def builtin_names(self) -> Tuple[str, ...]:
        """The names every installation has, in declaration order."""
        return tuple(self._builtin_modules)

    def names(self) -> Tuple[str, ...]:
        """Every resolvable name: built-ins, then third-party ones sorted."""
        return tuple(
            dict.fromkeys([*self._builtin_modules, *sorted(self._entries)])
        )

    def register(self, name: str, entry: T) -> None:
        """Register (or replace) ``entry`` under ``name``."""
        if not name:
            raise ValueError(f"{self.kind} name must be a non-empty string")
        self._entries[name] = entry

    def get(self, name: str) -> T:
        """The entry under ``name``, importing a built-in's module first."""
        if name not in self._entries:
            if name not in self._builtin_modules:
                raise ValueError(
                    f"unknown {self.kind} {name!r}; "
                    f"choose from {sorted(self.names())}"
                )
            # The module registers itself on import.
            importlib.import_module(self._builtin_modules[name])
        return self._entries[name]
