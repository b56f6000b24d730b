"""repro-lint: AST-based invariant checker for the repro codebase.

The hot paths of this repository rest on a handful of contracts that plain
unit tests enforce only incidentally:

* decode kernels write into preallocated :class:`~repro.state.DecodeWorkspace`
  arenas and must not allocate per call (``RL001``),
* ``out=`` destinations must not alias a read operand (``RL002``),
* randomness is drawn from argument-seeded generators or counter hashes,
  never from hidden global state (``RL003``),
* a :class:`~repro.state.NetworkState` handed to a function changes only
  through its public mutators, which bump the ``version`` counter its views
  refresh on - never through private-attribute writes (``RL004``),
* every public hot kernel is pinned bit-for-bit against a reference oracle by
  at least one test (``RL005``).

``repro-lint`` checks those contracts at the AST level, so a violation fails
CI when it is written, not three PRs later as a heisenbug.  Rules are plugins (see :mod:`tools.repro_lint.rules`); findings can
be suppressed inline with ``# repro-lint: disable=RL001`` (comma-separated
codes, or ``all``) or grandfathered in a committed baseline file.

Usage::

    python -m tools.repro_lint src/ benchmarks/ scripts/
    python -m tools.repro_lint --format json src/

The kernel registry the allocation and parity rules key off lives in
:mod:`repro.contracts`: decorating a function with ``@hot_kernel(...)``
opts it into ``RL001``/``RL005`` both at runtime and — via static decorator
detection, no imports — in this linter.
"""

from __future__ import annotations

from .engine import Finding, LintResult, Module, Project, lint_paths, lint_source

__all__ = [
    "Finding",
    "LintResult",
    "Module",
    "Project",
    "lint_paths",
    "lint_source",
]
