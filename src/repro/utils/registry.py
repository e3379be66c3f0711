"""The name → component registry class and the config error it raises.

A leaf module: every subsystem (``repro.api.registry``, ``repro.sched``,
``repro.exec``, ``repro.faults``, ``repro.brain``) instantiates
:class:`Registry` for its own component names, and every config section
validates against one through :meth:`Registry.require` — so both live
below all of them, importing nothing from the package.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable


class ConfigError(ValueError):
    """A malformed or unresolvable run configuration."""


class Registry:
    """A name → factory mapping with aliases and discovery.

    ``register`` works both as a decorator and as a direct call
    (``registry.register("name")(value)``); values need not be callables
    (cluster presets register :class:`CloudInstance` objects).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Any] = {}
        self._aliases: dict[str, str] = {}

    def register(
        self, name: str, *, aliases: Iterable[str] = (), overwrite: bool = False
    ) -> Callable[[Any], Any]:
        key = name.lower()

        alias_keys = [alias.lower() for alias in aliases]

        def _add(value: Any) -> Any:
            # Validate everything before mutating, so a collision leaves
            # the registry untouched and the registration retryable.
            if not overwrite:
                # canonical() also catches a new name shadowing an
                # existing alias (e.g. registering "topk" over the
                # exact-topk alias), not just exact-name collisions.
                if self.canonical(key) is not None:
                    raise KeyError(f"{self.kind} {name!r} is already registered")
                for alias_key in alias_keys:
                    if self.canonical(alias_key) is not None:
                        raise KeyError(
                            f"{self.kind} alias {alias_key!r} is already registered"
                        )
            self._entries[key] = value
            for alias_key in alias_keys:
                self._aliases[alias_key] = key
            return value

        return _add

    def canonical(self, name: str) -> str | None:
        """Resolve a name/alias to its canonical name (``None`` if unknown).

        Names reach here from config files and socket lines, so a
        non-``str`` is simply unknown, never an ``AttributeError``.
        """
        if not isinstance(name, str):
            return None
        key = name.lower()
        if key in self._entries:
            return key
        return self._aliases.get(key)

    def get(self, name: str) -> Any:
        key = self.canonical(name)
        if key is None:
            raise KeyError(
                f"unknown {self.kind} {name!r}; available: {', '.join(self.available())}"
            )
        return self._entries[key]

    def require(self, name: str, what: str | None = None) -> None:
        """Config-load check: raise :class:`ConfigError` unless registered."""
        if name not in self:
            raise ConfigError(
                f"unknown {what or self.kind} {name!r}; "
                f"registered: {', '.join(self.available())}"
            )

    def available(self) -> list[str]:
        """Sorted canonical names."""
        return sorted(self._entries)

    def aliases_of(self, name: str) -> list[str]:
        key = self.canonical(name)
        return sorted(a for a, target in self._aliases.items() if target == key)

    def __contains__(self, name: str) -> bool:
        return self.canonical(name) is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind}, {len(self._entries)} entries)"


__all__ = ["ConfigError", "Registry"]
