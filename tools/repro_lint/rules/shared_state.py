"""RL004 — no private-attribute writes on a ``NetworkState`` parameter.

One :class:`~repro.state.NetworkState` is shared by every view over it: the
node cache, the cached channel and any number of link caches gather from
the same instance and refresh their copies when its ``version`` counter
moves.  The public mutators (``add_nodes``/``remove_nodes``/``move_nodes``)
bump that counter after patching the derived matrices; a function that
writes a private (``_``-prefixed) attribute of a state it was handed skips
both, leaving every view serving stale blocks.  So functions taking a
``NetworkState``-annotated parameter must not assign to its private
attributes.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import Finding, Module
from . import Rule

__all__ = ["SharedStateMutation"]


class SharedStateMutation(Rule):
    code = "RL004"
    name = "shared-state-mutation"
    severity = "error"

    def check(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            state_params = set()
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
                if arg.annotation is None:
                    continue
                annotation = arg.annotation
                text = (
                    annotation.value
                    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str)
                    else ast.unparse(annotation)
                )
                if "NetworkState" in text:
                    state_params.add(arg.arg)
            if not state_params:
                continue
            for sub in ast.walk(node):
                if not isinstance(sub, (ast.Assign, ast.AugAssign)):
                    continue
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr.startswith("_")
                        and isinstance(target.value, ast.Name)
                        and target.value.id in state_params
                    ):
                        yield Finding(
                            code=self.code,
                            message=(
                                f"write to private attribute "
                                f"'{target.value.id}.{target.attr}' bypasses the "
                                "NetworkState mutators and the version counter "
                                "its views refresh on"
                            ),
                            path=module.path,
                            line=sub.lineno,
                            end_line=sub.end_lineno or sub.lineno,
                            severity=self.severity,
                            symbol=node.name,
                        )
