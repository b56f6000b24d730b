"""RL003 — RNG discipline: argument-seeded generators and counter hashes only.

Reproducibility in this repo rests on two conventions:

* **Trial functions** (anything dispatched through the parallel fabric —
  ``map_trials``/``map_trials_cold``/``run_sweep``/``TrialFabric.map``) must
  derive their randomness from their *arguments*:
  ``np.random.default_rng(offset + seed)``.  A generator seeded from
  anything else (or unseeded) makes trials depend on scheduling order.
* **Fade kernels** (the ``_pair_fade``/``fade``/``fade_pairs``/``fade_stack``
  methods of :class:`~repro.dynamics.gain.GainModel` subclasses) must be
  *stateless*: draws come from the SplitMix64 counter hash, never from an
  RNG object constructed inside the kernel, so that fades are a pure
  function of ``(seed, ids, slot)`` regardless of evaluation order.

* **Protocol code** (``repro.core``, ``repro.netsim``, ``repro.runtime``)
  flips counter-hashed coins only (``repro.coins``): it calls no method of
  a generator (a name or attribute ``rng``/``*_rng``, or one annotated
  ``Generator``), makes no draw by a generator method name (``random``,
  ``integers``, ``uniform``, ``shuffle``, ``spawn``, ...; ``bit_generator``
  counts as a generator) and constructs no generator, bit generator or seed
  sequence, so no coin depends on how many draws came before it.  A call
  hands its generator to ``repro.coins.seed_word`` (outside these
  packages), which reads the one seed word its coins hash.

Everywhere, the legacy stateful API (``np.random.seed``/``np.random.rand``/
...), the stdlib ``random`` module, and unseeded ``np.random.default_rng()``
are banned — they smuggle hidden global state into results.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from ..astutil import dotted_parts, enclosing_functions
from ..engine import Finding, Module
from . import Rule

__all__ = ["RngDiscipline"]

#: np.random members that are *constructors*, not stateful global draws.
_ALLOWED_RANDOM_MEMBERS = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: method names that form the fade-kernel contract on GainModel subclasses.
_FADE_KERNELS = frozenset({"_pair_fade", "fade", "fade_pairs", "fade_stack"})

#: callables whose first argument is dispatched as a trial function.
_DISPATCHERS = frozenset({"map_trials", "map_trials_cold", "run_sweep", "map"})

#: packages whose coins must all be counter hashes.
_PROTOCOL_PACKAGES = frozenset({"core", "netsim", "runtime"})

#: Generator / BitGenerator methods that draw from, reorder by or split a stream.
_DRAWS = frozenset({
    "random", "integers", "random_raw", "choice", "permutation", "permuted",
    "shuffle", "uniform", "normal", "standard_normal", "exponential",
    "binomial", "poisson", "geometric", "bytes", "spawn", "jumped", "advance",
})


def _generator_like(node: ast.expr, annotated: set[str]) -> bool:
    """``rng``, ``*_rng``, ``self.rng``, ``x.bit_generator`` or a name annotated ``Generator``."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    return name in ("rng", "bit_generator") or name.endswith("_rng") or name in annotated


def _generator_annotated(tree: ast.Module) -> set[str]:
    """Parameters and locals whose annotation names a ``Generator``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            name, annotation = node.arg, node.annotation
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name, annotation = node.target.id, node.annotation
        else:
            continue
        if annotation is not None and any(
            dotted_parts(part)[-1:] == ("Generator",)
            for part in ast.walk(annotation)
            if isinstance(part, (ast.Name, ast.Attribute))
        ):
            names.add(name)
    return names


def _np_random_member(node: ast.expr) -> str | None:
    """``np.random.X`` / ``numpy.random.X`` -> ``"X"``; else None."""
    parts = dotted_parts(node)
    if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
        return parts[2]
    return None


def _argument_derived_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameter names plus locals (transitively) assigned from them.

    A single forward pass over the body: ``n, seed = args`` taints ``n`` and
    ``seed`` when ``args`` is a parameter, so ``default_rng(1000 + seed)``
    counts as argument-derived seeding.
    """
    derived = {a.arg for a in (
        func.args.posonlyargs + func.args.args + func.args.kwonlyargs
    )}
    for vararg in (func.args.vararg, func.args.kwarg):
        if vararg is not None:
            derived.add(vararg.arg)

    def target_names(target: ast.expr) -> list[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            return [name for elt in target.elts for name in target_names(elt)]
        if isinstance(target, ast.Starred):
            return target_names(target.value)
        return []

    changed = True
    while changed:  # fixpoint: ast.walk order need not match source order
        changed = False
        for node in ast.walk(func):
            value = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            elif isinstance(node, ast.For):
                value, targets = node.iter, [node.target]
            if value is None:
                continue
            used = {n.id for n in ast.walk(value) if isinstance(n, ast.Name)}
            if used & derived:
                for target in targets:
                    for name in target_names(target):
                        if name not in derived:
                            derived.add(name)
                            changed = True
    return derived


def _gainmodel_classes(tree: ast.Module) -> list[ast.ClassDef]:
    classes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names = {node.name}
            for base in node.bases:
                parts = dotted_parts(base)
                if parts:
                    names.add(parts[-1])
            if any(name.endswith("GainModel") or name.endswith("Gain") for name in names):
                classes.append(node)
    return classes


class RngDiscipline(Rule):
    code = "RL003"
    name = "rng-discipline"
    severity = "error"

    def check(self, module: Module) -> Iterable[Finding]:
        findings: list[Finding] = []
        findings.extend(self._global_checks(module))
        findings.extend(self._trial_function_checks(module))
        findings.extend(self._fade_kernel_checks(module))
        findings.extend(self._protocol_checks(module))
        return findings

    # -- global discipline -------------------------------------------------

    def _global_checks(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported = getattr(node, "module", None) or ""
                names = [alias.name for alias in node.names]
                if imported == "random" or "random" in names and isinstance(node, ast.Import):
                    yield self._finding(
                        module, node,
                        "stdlib 'random' is banned; use an argument-seeded "
                        "np.random.default_rng or a counter hash",
                    )
            elif isinstance(node, ast.Call):
                member = _np_random_member(node.func)
                if member is not None and member not in _ALLOWED_RANDOM_MEMBERS:
                    yield self._finding(
                        module, node,
                        f"stateful global RNG call np.random.{member}(...); "
                        "construct an explicit seeded Generator instead",
                    )
                elif member == "default_rng" and not node.args and not node.keywords:
                    yield self._finding(
                        module, node,
                        "unseeded np.random.default_rng() draws OS entropy; "
                        "seed it from an argument or experiment constant",
                    )

    # -- trial functions ---------------------------------------------------

    def _trial_function_checks(self, module: Module) -> Iterable[Finding]:
        trial_names = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                parts = dotted_parts(node.func)
                if parts and parts[-1] in _DISPATCHERS and node.args:
                    first = node.args[0]
                    if isinstance(first, ast.Name):
                        trial_names.add(first.id)
        if not trial_names:
            return
        for qualname, func in enclosing_functions(module.tree):
            if func.name not in trial_names:
                continue
            derived = _argument_derived_names(func)
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                member = _np_random_member(node.func)
                is_ctor = member in ("default_rng", "Generator") or (
                    isinstance(node.func, ast.Name) and node.func.id == "default_rng"
                )
                if not is_ctor:
                    continue
                seed_names = {
                    n.id
                    for arg in list(node.args) + [kw.value for kw in node.keywords]
                    for n in ast.walk(arg)
                    if isinstance(n, ast.Name)
                }
                if not (seed_names & derived):
                    yield Finding(
                        code=self.code,
                        message=(
                            f"trial function '{qualname}' constructs a Generator whose "
                            "seed does not derive from its arguments; trials must be "
                            "a pure function of (config, seed)"
                        ),
                        path=module.path,
                        line=node.lineno,
                        end_line=node.end_lineno or node.lineno,
                        severity=self.severity,
                        symbol=qualname,
                    )

    # -- fade kernels ------------------------------------------------------

    def _fade_kernel_checks(self, module: Module) -> Iterable[Finding]:
        for cls in _gainmodel_classes(module.tree):
            for item in cls.body:
                if not isinstance(item, ast.FunctionDef) or item.name not in _FADE_KERNELS:
                    continue
                for node in ast.walk(item):
                    banned = None
                    if isinstance(node, ast.Attribute) and _np_random_member(node):
                        banned = "np.random"
                    elif isinstance(node, ast.Name) and node.id == "default_rng":
                        banned = "default_rng"
                    if banned is not None:
                        yield Finding(
                            code=self.code,
                            message=(
                                f"fade kernel '{cls.name}.{item.name}' uses {banned}; "
                                "fade draws must be stateless counter hashes "
                                "(SplitMix64 over (seed, ids, slot))"
                            ),
                            path=module.path,
                            line=node.lineno,
                            end_line=getattr(node, "end_lineno", node.lineno) or node.lineno,
                            severity=self.severity,
                            symbol=f"{cls.name}.{item.name}",
                        )

    # -- protocol packages -------------------------------------------------

    def _protocol_checks(self, module: Module) -> Iterable[Finding]:
        parts = Path(module.path).parts
        if not any(
            parts[i] == "repro" and parts[i + 1] in _PROTOCOL_PACKAGES
            for i in range(len(parts) - 1)
        ):
            return
        annotated = _generator_annotated(module.tree)
        imported = {  # `from numpy.random import PCG64 as Bits` -> {"Bits"}
            alias.asname or alias.name
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.random"
            for alias in node.names
            if alias.name in _ALLOWED_RANDOM_MEMBERS
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _np_random_member(node.func) in _ALLOWED_RANDOM_MEMBERS or (
                isinstance(node.func, ast.Name)
                and node.func.id in imported | {"default_rng"}
            ):
                what = "generator construction"
            elif isinstance(node.func, ast.Attribute) and (
                node.func.attr in _DRAWS or _generator_like(node.func.value, annotated)
            ):
                what = f"Generator draw .{node.func.attr}(...)"
            else:
                continue
            yield self._finding(
                module, node,
                f"{what} in protocol code; flip counter-hashed coins "
                "(repro.coins) keyed by ids and slot from the call's seed word",
            )

    def _finding(self, module: Module, node: ast.AST, message: str) -> Finding:
        return Finding(
            code=self.code,
            message=message,
            path=module.path,
            line=node.lineno,
            end_line=getattr(node, "end_lineno", node.lineno) or node.lineno,
            severity=self.severity,
        )
