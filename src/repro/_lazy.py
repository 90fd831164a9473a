"""Lazy re-exports for the package facades (PEP 562).

A facade such as :mod:`repro` or :mod:`repro.system` re-exports names
from many submodules.  Importing them all up front made every process
pay for the whole package — the columnar sweep engine, the artifact
store, the event oracle — even a single ``repro run`` that calls none
of it.  A facade instead maps each exported name to the module that
defines it; the first attribute access imports that module and caches
the value in the facade's namespace, so later lookups are plain
attribute reads.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List


def lazy_exports(namespace: Dict[str, object], exports: Dict[str, str]
                 ) -> Callable[[str], object]:
    """The module ``__getattr__`` resolving ``exports`` (name -> module).

    ``namespace`` is the facade's ``globals()``; a resolved name is
    stored there, so ``__getattr__`` runs once per name.  An unknown
    name raises :class:`AttributeError`, which also lets ``from facade
    import submodule`` fall through to the submodule import.
    """

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute "
                f"{name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    return __getattr__


def lazy_dir(namespace: Dict[str, object], exports: Dict[str, str]
             ) -> Callable[[], List[str]]:
    """The module ``__dir__`` listing resolved and pending names alike."""

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __dir__
