"""Fixture tests for the repro-lint invariant checker (``tools/repro_lint``).

Every rule gets a *trigger* fixture (the violation fires) and a *near-miss*
(the closest legal idiom stays clean), so rule drift in either direction
breaks a test.  The acceptance-criteria fixtures at the bottom run the real
tree: inserting an allocation into a registered hot kernel must turn the
lint red.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tools.repro_lint import lint_paths, lint_source
from tools.repro_lint.rules.aliasing import OutAliasing
from tools.repro_lint.rules.alloc import NoAllocInHotKernel
from tools.repro_lint.rules.hygiene import (
    BareExcept,
    MissingDunderAll,
    MutableDefaultArg,
    SlotsOrDataclass,
)
from tools.repro_lint.rules.parity import ParityOracleCoverage
from tools.repro_lint.rules.rng import RngDiscipline
from tools.repro_lint.rules.shared_state import SharedStateMutation
from tools.repro_lint.rules.obs_guard import ObsGuardInHotKernel
from tools.repro_lint.rules.waits import UnboundedWait
from tools.repro_lint.reporters import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes(findings):
    return sorted(f.code for f in findings)


def error_codes(findings):
    return sorted(f.code for f in findings if f.severity == "error")


# ---------------------------------------------------------------------------
# RL001 — no allocation in a registered hot kernel
# ---------------------------------------------------------------------------


class TestNoAllocInHotKernel:
    def test_trigger_allocation_in_kernel(self):
        findings = lint_source(
            "import numpy as np\n"
            "from repro.contracts import hot_kernel\n"
            "@hot_kernel()\n"
            "def _decode_fast(dist, workspace):\n"
            "    tmp = np.zeros(dist.shape)\n"
            "    return tmp\n",
            rules=[NoAllocInHotKernel()],
        )
        assert codes(findings) == ["RL001"]

    def test_trigger_copy_and_comprehension(self):
        findings = lint_source(
            "import numpy as np\n"
            "from repro.contracts import hot_kernel\n"
            "@hot_kernel()\n"
            "def _decode_fast(dist, workspace):\n"
            "    rows = [row for row in dist]\n"
            "    return dist.copy()\n",
            rules=[NoAllocInHotKernel()],
        )
        assert codes(findings) == ["RL001", "RL001"]

    def test_near_miss_workspace_fallback_branch_is_exempt(self):
        findings = lint_source(
            "import numpy as np\n"
            "from repro.contracts import hot_kernel\n"
            "@hot_kernel()\n"
            "def _decode_fast(dist, workspace=None):\n"
            "    if workspace is None:\n"
            "        out = np.empty(dist.shape)\n"
            "    else:\n"
            "        out = workspace.floats(dist.shape)\n"
            "    np.multiply(dist, 2.0, out=out)\n"
            "    return out\n",
            rules=[NoAllocInHotKernel()],
        )
        assert findings == []

    def test_near_miss_allocates_true_and_unregistered(self):
        findings = lint_source(
            "import numpy as np\n"
            "from repro.contracts import hot_kernel\n"
            "@hot_kernel(allocates=True)\n"
            "def _builder(xy):\n"
            "    return np.zeros((len(xy), 2))\n"
            "def plain_helper(xy):\n"
            "    return np.zeros((len(xy), 2))\n",
            rules=[NoAllocInHotKernel()],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# RL002 — out= aliasing
# ---------------------------------------------------------------------------


class TestOutAliasing:
    def test_trigger_reducing_alias(self):
        findings = lint_source(
            "import numpy as np\n"
            "def f(x):\n"
            "    np.cumsum(x, out=x)\n"
            "    np.maximum.reduce(x, out=x)\n",
            rules=[OutAliasing()],
        )
        assert codes(findings) == ["RL002", "RL002"]

    def test_trigger_partial_alias(self):
        findings = lint_source(
            "import numpy as np\n"
            "def f(x, y):\n"
            "    np.add(x[1:], y, out=x)\n",
            rules=[OutAliasing()],
        )
        assert codes(findings) == ["RL002"]

    def test_near_miss_exact_elementwise_in_place(self):
        findings = lint_source(
            "import numpy as np\n"
            "def f(x, y, z):\n"
            "    np.add(x, y, out=x)\n"
            "    np.multiply(x, y, out=z)\n",
            rules=[OutAliasing()],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# RL003 — RNG discipline
# ---------------------------------------------------------------------------


class TestRngDiscipline:
    def test_trigger_trial_function_constant_seed(self):
        findings = lint_source(
            "import numpy as np\n"
            "def trial(args):\n"
            "    rng = np.random.default_rng(42)\n"
            "    return rng.random()\n"
            "def run(fabric, jobs):\n"
            "    return fabric.map_trials(trial, jobs)\n",
            rules=[RngDiscipline()],
        )
        assert codes(findings) == ["RL003"]

    def test_near_miss_argument_derived_seed(self):
        findings = lint_source(
            "import numpy as np\n"
            "def trial(args):\n"
            "    n, seed = args\n"
            "    rng = np.random.default_rng(1000 + seed)\n"
            "    return rng.random(n)\n"
            "def run(fabric, jobs):\n"
            "    return fabric.map_trials(trial, jobs)\n",
            rules=[RngDiscipline()],
        )
        assert findings == []

    def test_trigger_global_discipline(self):
        findings = lint_source(
            "import random\n"
            "import numpy as np\n"
            "np.random.seed(0)\n"
            "rng = np.random.default_rng()\n",
            rules=[RngDiscipline()],
        )
        assert codes(findings) == ["RL003", "RL003", "RL003"]

    def test_near_miss_seeded_default_rng(self):
        findings = lint_source(
            "import numpy as np\n"
            "rng = np.random.default_rng(2024)\n",
            rules=[RngDiscipline()],
        )
        assert findings == []

    def test_trigger_rng_in_fade_kernel(self):
        findings = lint_source(
            "import numpy as np\n"
            "class RayleighGainModel:\n"
            "    def _pair_fade(self, ids, slot):\n"
            "        rng = np.random.default_rng(slot)\n"
            "        return rng.exponential()\n",
            rules=[RngDiscipline()],
        )
        assert codes(findings) == ["RL003"]

    def test_near_miss_fade_kernel_outside_gain_class(self):
        findings = lint_source(
            "import numpy as np\n"
            "class TrialHarness:\n"
            "    def _pair_fade(self, ids, slot):\n"
            "        rng = np.random.default_rng(slot)\n"
            "        return rng.exponential()\n",
            rules=[RngDiscipline()],
        )
        assert findings == []

    @pytest.mark.parametrize("package", ["core", "netsim", "runtime"])
    def test_trigger_generator_draws_in_protocol_code(self, package):
        findings = lint_source(
            "import numpy as np\n"
            "def attempts(links, rng, p):\n"
            "    kept = [link for link in links if rng.random() < p]\n"
            "    seeds = rng.integers(0, 2**63 - 1, size=len(links))\n"
            "    words = rng.bit_generator.random_raw(4)\n"
            "    pick = rng.choice(kept)\n"
            "    order = rng.permutation(len(kept))\n"
            "    streams = [np.random.default_rng(int(seed)) for seed in seeds]\n"
            "    return kept, words, pick, order, streams\n",
            filename=f"src/repro/{package}/fixture.py",
            rules=[RngDiscipline()],
        )
        assert codes(findings) == ["RL003"] * 6
        assert [f.line for f in findings] == [3, 4, 5, 6, 7, 8]

    def test_trigger_other_draws_and_bare_constructors(self):
        findings = lint_source(
            "import numpy as np\n"
            "from numpy.random import Generator, PCG64 as Bits\n"
            "class Contender:\n"
            "    def attempts(self, links, stream: np.random.Generator | None, p):\n"
            "        heads = self.rng.uniform(size=len(links)) < p\n"
            "        self.order_rng.shuffle(links)\n"
            "        children = stream.spawn(len(links))\n"
            "        delay = stream.wald(1.0, 2.0)\n"
            "        gen = Generator(Bits(7))\n"
            "        words = gen.bit_generator.random_raw(2)\n"
            "        return heads, children, delay, words, np.random.SeedSequence(3)\n",
            filename="src/repro/netsim/fixture.py",
            rules=[RngDiscipline()],
        )
        assert codes(findings) == ["RL003"] * 8
        assert sorted(f.line for f in findings) == [5, 6, 7, 8, 9, 9, 10, 11]

    def test_near_miss_hashed_coins_and_the_seed_word(self):
        source = (
            "from repro.coins import _hash_u64, _uniform_cut, seed_word\n"
            "def attempts(links, rng, ids, slot, p):\n"
            "    heads = _hash_u64(0x44434150, seed_word(rng), ids, slot) < _uniform_cut(p)\n"
            "    power = links[0].power(3.0)\n"
            "    return [link for link, head in zip(links, heads.tolist()) if head], power\n"
        )
        protocol = "src/repro/core/fixture.py"
        assert lint_source(source, filename=protocol, rules=[RngDiscipline()]) == []
        # Outside the protocol packages a seeded generator may draw freely:
        # the seed word itself is such a draw, in ``repro.coins``.
        draws = "import numpy as np\nrng = np.random.default_rng(3)\nx = rng.random(4)\n"
        word = (
            "import numpy as np\n"
            "def seed_word(rng):\n"
            "    return int(rng.integers(1 << 64, dtype=np.uint64))\n"
        )
        for source, path in (
            (draws, "src/repro/geometry/fixture.py"),
            (draws, "src/repro/experiments/fixture.py"),
            (word, "src/repro/coins.py"),
        ):
            assert lint_source(source, filename=path, rules=[RngDiscipline()]) == []


# ---------------------------------------------------------------------------
# RL004 — private writes on a NetworkState parameter
# ---------------------------------------------------------------------------


class TestSharedStateMutation:
    def test_trigger_private_write_on_annotated_param(self):
        findings = lint_source(
            "def drop(state: 'NetworkState') -> None:\n"
            "    state._distances = None\n",
            rules=[SharedStateMutation()],
        )
        assert codes(findings) == ["RL004"]

    def test_near_miss_public_write_on_annotated_param(self):
        findings = lint_source(
            "def bump(state: 'NetworkState') -> None:\n"
            "    state.version = 1\n",
            rules=[SharedStateMutation()],
        )
        assert findings == []

    def test_inline_suppression_silences_the_finding(self):
        findings = lint_source(
            "def drop(state: 'NetworkState') -> None:\n"
            "    state._distances = None  # repro-lint: disable=RL004\n",
            rules=[SharedStateMutation()],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# RL005 — parity-oracle coverage
# ---------------------------------------------------------------------------

_KERNEL_WITH_ORACLE = (
    "from repro.contracts import hot_kernel\n"
    "@hot_kernel(oracle='decode_ref', allocates=True)\n"
    "def decode_fast(dist):\n"
    "    return dist\n"
)


class TestParityOracleCoverage:
    def test_trigger_missing_oracle_declaration(self):
        findings = lint_source(
            "from repro.contracts import hot_kernel\n"
            "@hot_kernel(allocates=True)\n"
            "def decode_fast(dist):\n"
            "    return dist\n",
            rules=[ParityOracleCoverage()],
        )
        assert codes(findings) == ["RL005"]

    def test_trigger_no_test_exercises_the_pair(self):
        findings = lint_source(
            _KERNEL_WITH_ORACLE,
            test_sources={"tests/test_other.py": "def test():\n    assert True\n"},
            rules=[ParityOracleCoverage()],
        )
        assert codes(findings) == ["RL005"]

    def test_near_miss_parity_test_references_both(self):
        findings = lint_source(
            _KERNEL_WITH_ORACLE,
            test_sources={
                "tests/test_decode.py": (
                    "def test_parity(dist):\n"
                    "    assert (decode_fast(dist) == decode_ref(dist)).all()\n"
                )
            },
            rules=[ParityOracleCoverage()],
        )
        assert findings == []

    def test_near_miss_private_kernels_are_exempt(self):
        findings = lint_source(
            "from repro.contracts import hot_kernel\n"
            "@hot_kernel()\n"
            "def _inner(dist):\n"
            "    return dist\n",
            rules=[ParityOracleCoverage()],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# RL006–RL009 — hygiene rules
# ---------------------------------------------------------------------------


class TestHygieneRules:
    def test_rl006_trigger_plain_holder_class(self):
        findings = lint_source(
            "class Holder:\n"
            "    def __init__(self, a, b):\n"
            "        self.a = a\n"
            "        self.b = b\n",
            rules=[SlotsOrDataclass()],
        )
        assert codes(findings) == ["RL006"]
        assert findings[0].severity == "warning"

    def test_rl006_near_miss_slots_and_dataclass(self):
        findings = lint_source(
            "from dataclasses import dataclass\n"
            "class Slotted:\n"
            "    __slots__ = ('a',)\n"
            "    def __init__(self, a):\n"
            "        self.a = a\n"
            "@dataclass(frozen=True)\n"
            "class Record:\n"
            "    a: int\n",
            rules=[SlotsOrDataclass()],
        )
        assert findings == []

    def test_rl006_near_miss_outside_src(self):
        findings = lint_source(
            "class Holder:\n"
            "    def __init__(self, a):\n"
            "        self.a = a\n",
            filename="scripts/fixture.py",
            rules=[SlotsOrDataclass()],
        )
        assert findings == []

    def test_rl007_trigger_public_defs_without_all(self):
        findings = lint_source(
            "def public_api():\n    return 1\n",
            rules=[MissingDunderAll()],
        )
        assert codes(findings) == ["RL007"]
        assert findings[0].severity == "warning"

    def test_rl007_near_miss_with_all_or_private(self):
        findings = lint_source(
            "__all__ = ['public_api']\n"
            "def public_api():\n    return 1\n"
            "def _helper():\n    return 2\n",
            rules=[MissingDunderAll()],
        )
        assert findings == []

    def test_rl008_trigger_mutable_defaults(self):
        findings = lint_source(
            "def f(x=[]):\n    return x\n"
            "def g(*, y={}):\n    return y\n",
            rules=[MutableDefaultArg()],
        )
        assert codes(findings) == ["RL008", "RL008"]

    def test_rl008_near_miss_immutable_defaults(self):
        findings = lint_source(
            "def f(x=(), y=None, z=0):\n    return x, y, z\n",
            rules=[MutableDefaultArg()],
        )
        assert findings == []

    def test_rl009_trigger_bare_and_swallowed_except(self):
        findings = lint_source(
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except:\n"
            "        pass\n"
            "def g():\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception:\n"
            "        return 0\n",
            rules=[BareExcept()],
        )
        assert codes(findings) == ["RL009", "RL009"]

    def test_rl009_near_miss_reraise_and_narrow(self):
        findings = lint_source(
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception:\n"
            "        raise\n"
            "def g():\n"
            "    try:\n"
            "        return 1\n"
            "    except ValueError:\n"
            "        return 0\n",
            rules=[BareExcept()],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


class TestReporters:
    @pytest.fixture()
    def mixed_result(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "fixture.py").write_text(
            "def f(x=[]):\n    return x\n"        # RL008 error
            "def public_api():\n    return 1\n",  # RL007 warning (no __all__)
        )
        return lint_paths([src], tests_dir=None)

    def test_json_and_text_agree_on_counts(self, mixed_result):
        payload = json.loads(render_json(mixed_result))
        assert payload["summary"]["errors"] == len(mixed_result.errors) == 1
        assert payload["summary"]["warnings"] == len(mixed_result.warnings) == 1
        assert len(payload["findings"]) == len(mixed_result.findings)

        text = render_text(mixed_result)
        finding_lines = [l for l in text.splitlines() if not l.startswith("repro-lint:")]
        assert len(finding_lines) == len(payload["findings"])
        assert "1 error(s), 1 warning(s)" in text

    def test_json_findings_carry_fingerprints(self, mixed_result):
        payload = json.loads(render_json(mixed_result))
        fingerprints = {f["fingerprint"] for f in payload["findings"]}
        assert fingerprints == {f.fingerprint for f in mixed_result.findings}

    def test_exit_code_tracks_errors_only(self, mixed_result, tmp_path):
        assert mixed_result.exit_code == 1
        warn_only = tmp_path / "warn"
        warn_only.mkdir()
        (warn_only / "src").mkdir()
        (warn_only / "src" / "m.py").write_text("def public_api():\n    return 1\n")
        assert lint_paths([warn_only], tests_dir=None).exit_code == 0


# ---------------------------------------------------------------------------
# Acceptance criteria against the real tree
# ---------------------------------------------------------------------------


class TestAcceptanceCriteria:
    def test_cli_exits_zero_on_the_repo(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.repro_lint", "src", "benchmarks", "scripts"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_cli_json_output_parses(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.repro_lint", "--format", "json", "src"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        payload = json.loads(proc.stdout)
        assert payload["summary"]["errors"] == 0

    def test_inserting_alloc_into_hot_kernel_turns_the_lint_red(self):
        path = REPO_ROOT / "src" / "repro" / "sinr" / "channel.py"
        source = path.read_text()
        clean = lint_source(
            source, filename="src/repro/sinr/channel.py", rules=[NoAllocInHotKernel()]
        )
        assert clean == []
        assert "def _decode_received(" in source
        # Insert an allocation as the first statement of the registered kernel.
        lines = source.splitlines(keepends=True)
        for i, line in enumerate(lines):
            if line.startswith("def _decode_received("):
                depth = i
                while not lines[depth].rstrip().endswith(":"):
                    depth += 1
                lines.insert(depth + 1, "    scratch = np.zeros(4)\n")
                break
        broken = "".join(lines)
        findings = lint_source(
            broken, filename="src/repro/sinr/channel.py", rules=[NoAllocInHotKernel()]
        )
        assert "RL001" in error_codes(findings)

    def test_registry_and_linter_agree_on_kernels(self):
        import importlib
        import pkgutil

        import repro
        from repro.contracts import KERNEL_REGISTRY

        # Packages load their modules on first use: import every module, so
        # each ``@hot_kernel`` decorator has run.
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)

        assert len(KERNEL_REGISTRY) == 9
        rect = KERNEL_REGISTRY["repro.state.kernels:attenuation_rect_from_xy"]
        assert rect.oracle == "attenuation_from_distances"
        assert rect.allocates is False
        assert KERNEL_REGISTRY["repro.sinr.channel:_decode_received"].allocates is False


# ---------------------------------------------------------------------------
# RL010 — unbounded waits in netsim modules
# ---------------------------------------------------------------------------


class TestUnboundedWait:
    def test_trigger_receive_loop_without_bound(self):
        findings = lint_source(
            "def pump(sim):\n"
            "    while sim.has_pending():\n"
            "        sim.step('wait')\n",
            filename="src/repro/netsim/pump.py",
            rules=[UnboundedWait()],
        )
        assert codes(findings) == ["RL010"]
        assert "unbounded wait" in findings[0].message

    def test_trigger_while_true_spin(self):
        findings = lint_source(
            "def wait_for_ack(outbox, sim):\n"
            "    while True:\n"
            "        sim.step('ack-wait')\n"
            "        if outbox.empty():\n"
            "            break\n",
            filename="src/repro/netsim/spin.py",
            rules=[UnboundedWait()],
        )
        assert codes(findings) == ["RL010"]

    def test_near_miss_timeout_bound_is_clean(self):
        findings = lint_source(
            "def pump(sim, max_slots):\n"
            "    executed = 0\n"
            "    while executed < max_slots:\n"
            "        sim.step('wait')\n"
            "        executed += 1\n",
            filename="src/repro/netsim/pump.py",
            rules=[UnboundedWait()],
        )
        assert findings == []

    def test_near_miss_deadline_and_retry_budget_are_clean(self):
        findings = lint_source(
            "def drain(outbox, sim, deadline):\n"
            "    while sim.slot < deadline:\n"
            "        sim.step('drain')\n"
            "def resend(outbox, slot):\n"
            "    while outbox.attempts_left():\n"
            "        outbox.retry(slot)\n",
            filename="src/repro/netsim/drain.py",
            rules=[UnboundedWait()],
        )
        assert findings == []

    def test_near_miss_for_loop_is_inherently_bounded(self):
        findings = lint_source(
            "def run_phase(sim, slots):\n"
            "    for _ in range(slots):\n"
            "        sim.step('phase')\n",
            filename="src/repro/netsim/phase.py",
            rules=[UnboundedWait()],
        )
        assert findings == []

    def test_rule_is_scoped_to_netsim_modules(self):
        findings = lint_source(
            "def spin(sim):\n"
            "    while sim.busy():\n"
            "        sim.step('spin')\n",
            filename="src/repro/runtime/other.py",
            rules=[UnboundedWait()],
        )
        assert findings == []

    def test_inline_suppression_works(self):
        findings = lint_source(
            "def spin(sim):\n"
            "    while sim.busy():  # repro-lint: disable=RL010\n"
            "        sim.step('spin')\n",
            filename="src/repro/netsim/spin.py",
            rules=[UnboundedWait()],
        )
        assert findings == []

    def test_netsim_package_is_rl010_clean(self):
        result = lint_paths(
            [str(REPO_ROOT / "src" / "repro" / "netsim")], rules=[UnboundedWait()]
        )
        assert [f for f in result.findings if f.code == "RL010"] == []


# ---------------------------------------------------------------------------
# RL011 — telemetry in hot kernels must sit behind the enabled guard
# ---------------------------------------------------------------------------


class TestObsGuardInHotKernel:
    def test_trigger_unguarded_counter_bump(self):
        findings = lint_source(
            "from repro.contracts import hot_kernel\n"
            "from repro.obs.runtime import OBS\n"
            "@hot_kernel()\n"
            "def _decode_fast(dist, workspace):\n"
            "    OBS.registry.inc('decode.calls')\n"
            "    return dist\n",
            rules=[ObsGuardInHotKernel()],
        )
        assert codes(findings) == ["RL011"]
        assert "enabled guard" in findings[0].message

    def test_trigger_unguarded_span(self):
        findings = lint_source(
            "from repro.contracts import hot_kernel\n"
            "from repro.obs.spans import span\n"
            "@hot_kernel()\n"
            "def _decode_fast(dist, workspace):\n"
            "    with span('decode'):\n"
            "        return dist\n",
            rules=[ObsGuardInHotKernel()],
        )
        assert codes(findings) == ["RL011"]

    def test_trigger_guard_on_wrong_condition(self):
        findings = lint_source(
            "from repro.contracts import hot_kernel\n"
            "from repro.obs.runtime import OBS\n"
            "@hot_kernel()\n"
            "def _decode_fast(dist, workspace, verbose):\n"
            "    if verbose:\n"
            "        OBS.registry.inc('decode.calls')\n"
            "    return dist\n",
            rules=[ObsGuardInHotKernel()],
        )
        assert codes(findings) == ["RL011"]

    def test_near_miss_enabled_guard_is_clean(self):
        findings = lint_source(
            "from repro.contracts import hot_kernel\n"
            "from repro.obs.runtime import OBS\n"
            "@hot_kernel()\n"
            "def _decode_fast(dist, workspace):\n"
            "    if OBS.enabled:\n"
            "        OBS.registry.inc('decode.calls')\n"
            "    return dist\n",
            rules=[ObsGuardInHotKernel()],
        )
        assert findings == []

    def test_near_miss_predicate_guard_is_clean(self):
        findings = lint_source(
            "from repro.contracts import hot_kernel\n"
            "from repro.obs.runtime import OBS, telemetry_enabled\n"
            "@hot_kernel()\n"
            "def _decode_fast(dist, workspace):\n"
            "    if telemetry_enabled():\n"
            "        OBS.registry.inc('decode.calls')\n"
            "    return dist\n",
            rules=[ObsGuardInHotKernel()],
        )
        assert findings == []

    def test_near_miss_reading_the_flag_is_the_idiom(self):
        findings = lint_source(
            "from repro.contracts import hot_kernel\n"
            "from repro.obs.runtime import OBS\n"
            "@hot_kernel()\n"
            "def _decode_fast(dist, workspace):\n"
            "    flag = OBS.enabled\n"
            "    return dist if flag else None\n",
            rules=[ObsGuardInHotKernel()],
        )
        assert findings == []

    def test_rule_ignores_functions_outside_kernels(self):
        findings = lint_source(
            "from repro.obs.runtime import OBS\n"
            "def harness(dist):\n"
            "    OBS.registry.inc('harness.calls')\n"
            "    return dist\n",
            rules=[ObsGuardInHotKernel()],
        )
        assert findings == []

    def test_source_tree_is_rl011_clean(self):
        result = lint_paths(
            [str(REPO_ROOT / "src" / "repro")], rules=[ObsGuardInHotKernel()]
        )
        assert [f for f in result.findings if f.code == "RL011"] == []
