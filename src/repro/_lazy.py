"""PEP 562 re-exports: a package names its exports, modules run on first use.

Every package ``__init__`` under ``repro`` but ``experiments`` (which builds
its registry at import) holds one :class:`LazyExports` map from submodule to
the names it re-exports, and hands its module-level ``__getattr__`` /
``__dir__`` to it.  Each package writes them as ``def`` statements, which is
the form type checkers read as PEP 562 hooks::

    _EXPORTS = LazyExports(__name__, {"point": ("Point", "distance")})
    __all__ = _EXPORTS.names


    def __getattr__(name: str) -> Any:
        return _EXPORTS.resolve(name)

``import repro.geometry`` then runs no submodule; ``repro.geometry.Point``
imports ``repro.geometry.point`` and returns its attribute.  The value is
not stored in the package namespace, so a later ``setattr`` on the defining
module (a tracer or a monkeypatch) is what every package-level access sees.
"""

from __future__ import annotations

import importlib
from typing import Any, Mapping, Sequence

__all__ = ["LazyExports"]


class LazyExports:
    """One package's export map.

    Attributes:
        package: the package's dotted name.
        home: exported name -> dotted name of the module defining it.
        names: the exported names, in map order (the package's ``__all__``).
    """

    __slots__ = ("home", "names", "package")

    def __init__(self, package: str, exports: Mapping[str, Sequence[str]]) -> None:
        self.package = package
        self.home: dict[str, str] = {}
        for module, names in exports.items():
            for name in names:
                if name in self.home:
                    raise ValueError(f"{package} exports {name!r} twice")
                self.home[name] = f"{package}.{module}"
        self.names = list(self.home)

    def resolve(self, name: str) -> Any:
        """The exported object, importing its module on first access."""
        home = self.home.get(name)
        if home is None:
            raise AttributeError(f"module {self.package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(home), name)

    def dir(self, namespace: Mapping[str, Any]) -> list[str]:
        """``dir()`` of the package: what it holds plus every export."""
        return sorted({*namespace, *self.home})
