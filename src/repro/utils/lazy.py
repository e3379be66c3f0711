"""Package namespaces that import on first use (PEP 562).

A package ``__init__`` states what it exports as one table — defining
module → names — and binds the pair this module builds::

    __getattr__, __all__ = lazy_exports(__name__, {
        "repro.utils.clock": ["VirtualClock"],
    })

Importing the package then imports none of its modules: ``repro.X``,
``from repro import X`` and ``from repro import *`` import ``X``'s
defining module when the name is first looked up, so a process loads
only the modules its own imports name.  A leaf module, importing
nothing from the package, because every ``__init__`` imports it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(package: str, table: Mapping[str, Sequence[str]]) -> tuple[Callable[[str], Any], list[str]]:
    """The module ``__getattr__`` and ``__all__`` for ``package``.

    ``__getattr__`` resolves a name in ``table`` from its defining
    module, and any other name to the submodule of that name (as
    ``repro.sched`` after ``import repro``); the value is then bound in
    the package, so each name is resolved once.
    """
    homes = {name: module for module, names in table.items() for name in names}
    missing = f"module {package!r} has no attribute {{!r}}"

    def __getattr__(name: str) -> Any:
        if name in homes:
            value = getattr(importlib.import_module(homes[name]), name)
        elif name.startswith("__"):
            # Never a submodule, and the import system probes dunders
            # (``__path__``) while importing one.
            raise AttributeError(missing.format(name))
        else:
            submodule = f"{package}.{name}"
            try:
                value = importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
                raise AttributeError(missing.format(name)) from None
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(homes)
