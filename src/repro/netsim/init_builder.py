"""``Init`` over a lossy transport: build the bi-tree and survive the faults.

:class:`NetInitBuilder` runs the exact protocol of :class:`~repro.core
.init_tree.InitialTreeBuilder` - the same array program, same labels, same
sweep structure - but stepped by a :class:`~repro.netsim.runtime
.NetSimulator`, which reports crashes and recoveries to the program and
hands it delayed frames when they mature, and with the lockstep builder's
god's-eye reads of the protocol state replaced by the failure detector's
view.  Under a faultless plan every seam collapses to the lockstep engine,
so the message trace and the resulting tree are bit-identical to the oracle
(the parity tests pin this).  Under faults, the outcome depends on the
delivery mode:

* ``"fire-and-forget"`` is the paper's semantics: the protocol's own
  redundancy absorbs message loss, but nothing repairs structural damage -
  crashes or non-convergence raise.
* ``"reliable"`` survives: whatever partial forest the faulty run leaves
  behind (extra active nodes, orphans whose parent crashed mid-run, subtrees
  cut loose) is completed through :meth:`~repro.core.repair.TreeRepairer
  .integrate`, whose patch ``Init`` re-run executes over the *same lossy
  transport* (crash windows stripped, hash counters offset past the main
  run) - so the repair machinery is exercised by emergent failures, not
  synthetic ones, and the extra slots are reported as the price of loss.

One non-paper hazard is handled explicitly: with message *latency*, a stale
acknowledgment can mature slots after it was sent and close a parent cycle
(the slot-synchronous protocol cannot produce one).  Cycles are detected and
cut deterministically before the splice; the cut nodes re-attach with the
other orphans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..core.bitree import BiTree
from ..core.init_tree import (
    InitialTreeBuilder,
    InitState,
    _InitProgram,
    round_power,
    validate_init_nodes,
)
from ..core.quantities import num_rounds_for_delta
from ..core.repair import TreeRepairer
from ..exceptions import ConfigurationError, NodeCrashedError, ProtocolError
from ..geometry import Node, diameter
from ..obs.spans import span
from ..runtime import ExecutionTrace, spawn_agent_rngs
from ..sinr import Channel, ExplicitPower, SINRParameters, UniformPower
from .detector import HeartbeatDetector
from .driver import RoundDriver
from .faults import FaultPlan
from .runtime import NetSimulator
from .transport import FaultyTransport, PerfectTransport, Transport

__all__ = ["DELIVERY_MODES", "NetInitBuilder", "NetInitResult"]

DELIVERY_MODES = ("fire-and-forget", "reliable")


@dataclass
class NetInitResult:
    """Outcome of running ``Init`` over the message-passing runtime.

    The first block of attributes mirrors :class:`~repro.core.init_tree
    .InitialTreeResult` (and is field-for-field identical to it on a
    faultless run); the second block reports what the transport did.

    Attributes:
        tree: the constructed bi-tree, spanning the nodes alive at the end.
        slots_used: total channel slots, completion patch included.
        rounds_used: protocol rounds executed by the main run.
        sweeps_used: round sweeps executed by the main run.
        delta: the distance ratio of the instance.
        power: per-link powers (patch links included).
        link_rounds: formation round of each main-run link still in the tree.
        trace: the main run's slot-by-slot execution trace.
        stored_degrees: per node, links stored during the main run.
        crashed: nodes down when the main run ended (absent from the tree).
        reattached: orphaned subtree roots the completion patch re-attached.
        completed_by_repair: whether a completion patch was needed at all.
        completion_slots: slots the completion patch consumed.
        send_budget: per-node transmissions actually attempted.
        fault_summary: transport counters (drops, delays, crashes, ...).
        fault_digest: order-normalized fingerprint of the fault history,
            ``None`` when the run used a perfect transport.
    """

    tree: BiTree
    slots_used: int
    rounds_used: int
    sweeps_used: int
    delta: float
    power: ExplicitPower
    link_rounds: dict[tuple[int, int], int]
    trace: ExecutionTrace
    stored_degrees: dict[int, int]
    crashed: frozenset[int] = frozenset()
    reattached: frozenset[int] = frozenset()
    completed_by_repair: bool = False
    completion_slots: int = 0
    send_budget: dict[int, int] = field(default_factory=dict)
    fault_summary: dict[str, int] = field(default_factory=dict)
    fault_digest: str | None = None


class NetInitBuilder:
    """Runs distributed ``Init`` over a fault-injected transport.

    Args:
        params: SINR model parameters.
        constants: protocol constants (probabilities, slot-pairs per round).
        max_sweeps: round-sweep budget of the main run (and of each patch).
        plan: the fault configuration; ``None`` means a perfect transport.
        delivery: ``"fire-and-forget"`` (paper semantics, raises on damage)
            or ``"reliable"`` (completes the tree through the repairer).
        miss_threshold: consecutive heartbeat misses before the detector
            suspects a node.
        slot_offset: added to every slot before fault hashing, so chained
            runs draw fresh fault counters (used by completion patches).
    """

    #: completion patches beyond this depth run over a perfect transport,
    #: bounding the recursion while keeping the first patch realistically
    #: lossy.
    _MAX_LOSSY_DEPTH = 1

    def __init__(
        self,
        params: SINRParameters,
        constants: AlgorithmConstants = DEFAULT_CONSTANTS,
        max_sweeps: int = 20,
        *,
        plan: FaultPlan | None = None,
        delivery: str = "reliable",
        miss_threshold: int = 3,
        slot_offset: int = 0,
        _completion_depth: int = 0,
    ) -> None:
        if max_sweeps < 1:
            raise ConfigurationError("max_sweeps must be at least 1")
        if delivery not in DELIVERY_MODES:
            raise ConfigurationError(
                f"delivery must be one of {DELIVERY_MODES}, got {delivery!r}"
            )
        if slot_offset < 0:
            raise ConfigurationError(f"slot_offset must be non-negative, got {slot_offset}")
        self.params = params
        self.constants = constants
        self.max_sweeps = max_sweeps
        self.plan = plan
        self.delivery = delivery
        self.miss_threshold = miss_threshold
        self.slot_offset = slot_offset
        self._completion_depth = _completion_depth

    # -- construction --------------------------------------------------------

    def build(self, nodes: Sequence[Node], rng: np.random.Generator) -> NetInitResult:
        """Run ``Init`` on ``nodes`` over the configured transport.

        Raises:
            ProtocolError: if the run does not converge and the delivery mode
                offers no completion path, or if two nodes share an id.
            ConfigurationError: if a node has a non-finite coordinate.
            NodeCrashedError: if crashes leave nothing to span, or leave
                damage that ``"fire-and-forget"`` cannot repair.
        """
        node_list = list(nodes)
        if len(node_list) <= 1:
            # Nothing to send: the lockstep builder's result (or error) stands.
            only = InitialTreeBuilder(self.params, self.constants, self.max_sweeps).build(
                node_list, rng
            )
            return NetInitResult(**vars(only), send_budget={node_list[0].id: 0})
        validate_init_nodes(node_list)

        delta = diameter(node_list)
        rounds_per_sweep = num_rounds_for_delta(max(delta, 1.0))
        pairs_per_round = self.constants.slot_pairs_per_round(len(node_list))

        program = _InitProgram(
            node_list, self.params, self.constants, spawn_agent_rngs(rng, len(node_list))
        )
        detector = HeartbeatDetector(
            [node.id for node in node_list],
            interval=1,
            miss_threshold=self.miss_threshold,
        )
        # The plain Channel is upgraded to a CachedChannel over a store
        # chosen by size by the inherited Simulator init path.
        sim = NetSimulator(
            program,
            Channel(self.params),
            self._make_transport(),
            detector=detector,
        )
        driver = RoundDriver(sim)
        step = sim.step

        rounds_used = 0
        sweeps_used = 0
        with span(
            "init.build",
            n=len(node_list),
            delivery=self.delivery,
            depth=self._completion_depth,
        ):
            for sweep in range(self.max_sweeps):
                sweeps_used = sweep + 1
                with span("init.sweep", sweep=sweep):
                    for round_index in range(1, rounds_per_sweep + 1):
                        # Same structure as the lockstep builder, but the
                        # early-out reads the detector's view, never the
                        # program's state: the first sweep always runs in
                        # full, later sweeps stop as soon as at most one
                        # alive-believed node still reports "active".
                        if sweep > 0 and driver.remaining_active() <= 1:
                            break
                        rounds_used += 1
                        program.begin_round(round_index)
                        broadcast = f"init:sweep{sweep}:round{round_index}:broadcast"
                        ack = f"init:sweep{sweep}:round{round_index}:ack"
                        with span("init.round", sweep=sweep, round=round_index):
                            for _ in range(pairs_per_round):
                                step(broadcast)
                                step(ack)
                if driver.remaining_active() <= 1:
                    break

        state = program.finish()
        crashed_now = sim.crashed_ids()
        cycle_cuts = self._cycle_cuts(node_list, state)

        if self.delivery == "fire-and-forget":
            if crashed_now:
                raise NodeCrashedError(
                    f"{len(crashed_now)} node(s) crashed during Init; "
                    'fire-and-forget delivery cannot repair the tree - '
                    'use delivery="reliable"'
                )
            if cycle_cuts:
                raise ProtocolError(
                    "delayed acknowledgments formed a parent cycle; "
                    'use delivery="reliable" to have it cut and repaired'
                )
            if program.active_count() > 1:
                raise ProtocolError(
                    f"Init did not converge to a single active node within "
                    f"{self.max_sweeps} sweeps"
                )
            return self._lockstep_result(node_list, state, sim, delta, rounds_used, sweeps_used)

        # Reliable mode: anything short of a clean single-root run is
        # completed through the repairer.
        if not any(node.id not in crashed_now for node in node_list):
            raise NodeCrashedError("every node crashed during Init; nothing to span")
        if not crashed_now and not cycle_cuts and program.active_count() == 1:
            return self._lockstep_result(node_list, state, sim, delta, rounds_used, sweeps_used)
        return self._complete_with_repair(
            node_list, state, sim, delta, rounds_used, sweeps_used,
            crashed_now, cycle_cuts, rng,
        )

    # -- transports ----------------------------------------------------------

    def _make_transport(self) -> Transport:
        if self.plan is None or self.plan.faultless:
            return PerfectTransport()
        return FaultyTransport(self.plan, slot_offset=self.slot_offset)

    # -- result extraction ---------------------------------------------------

    def _lockstep_result(
        self,
        node_list: Sequence[Node],
        state: InitState,
        sim: NetSimulator,
        delta: float,
        rounds_used: int,
        sweeps_used: int,
    ) -> NetInitResult:
        """Clean convergence: reuse the lockstep extractor verbatim (parity)."""
        oracle = InitialTreeBuilder(self.params, self.constants, self.max_sweeps)._extract_result(
            node_list, state, sim.trace, sim.current_slot, delta, rounds_used, sweeps_used
        )
        return NetInitResult(
            **vars(oracle),
            send_budget=sim.send_budget,
            fault_summary=sim.fault_summary(),
            fault_digest=None if sim.fault_trace is None else sim.fault_trace.digest(),
        )

    def _complete_with_repair(
        self,
        node_list: Sequence[Node],
        state: InitState,
        sim: NetSimulator,
        delta: float,
        rounds_used: int,
        sweeps_used: int,
        crashed_now: frozenset[int],
        cycle_cuts: list[int],
        rng: np.random.Generator,
    ) -> NetInitResult:
        """Splice whatever the faulty run left into a spanning tree.

        The partial forest (crashed nodes included, so the repairer's failure
        path is driven by the emergent crashes) goes through
        :meth:`TreeRepairer.integrate`; the patch ``Init`` runs over the same
        loss environment minus the crash windows, with its fault counters
        offset past the main run.
        """
        ids = [node.id for node in node_list]
        links = [
            (ids[i], ids[parent_pos], slot_pair, round_index)
            for i, (parent_pos, slot_pair, round_index) in enumerate(
                zip(
                    state.parent_pos.tolist(),
                    state.parent_slot_pair.tolist(),
                    state.parent_round.tolist(),
                )
            )
            if parent_pos >= 0
        ]
        parent: dict[int, int] = {}
        slots: dict[int, int] = {}
        power_map: dict[tuple[int, int], float] = {}
        for child, parent_id, slot_pair, round_index in links:
            if child in cycle_cuts:
                continue
            parent[child] = parent_id
            slots[child] = slot_pair
            power = round_power(round_index, self.params)
            power_map[(child, parent_id)] = power
            power_map[(parent_id, child)] = power

        # Root: the unique alive active node if there is one; otherwise the
        # smallest parentless id (preferring alive nodes).  Parentless nodes
        # always exist - the pointer graph is acyclic after the cuts.
        active_alive = [
            node_id
            for node_id, active in zip(ids, state.active.tolist())
            if active and node_id not in crashed_now
        ]
        if len(active_alive) == 1:
            root_id = active_alive[0]
        else:
            parentless = [node_id for node_id in ids if node_id not in parent]
            alive_parentless = [nid for nid in parentless if nid not in crashed_now]
            root_id = min(alive_parentless) if alive_parentless else min(parentless)

        partial = BiTree.from_parent_map(node_list, root_id, parent, slots)
        fallback = UniformPower.for_max_length(self.params, max(delta, 1.0))
        repairer = TreeRepairer(
            self.params,
            self.constants,
            patch_builder=NetInitBuilder(
                self.params,
                self.constants,
                self.max_sweeps,
                plan=self._patch_plan(),
                delivery="reliable",
                miss_threshold=self.miss_threshold,
                slot_offset=self.slot_offset + sim.current_slot,
                _completion_depth=self._completion_depth + 1,
            ),
        )
        repair = repairer.integrate(
            partial,
            ExplicitPower(power_map, fallback=fallback),
            failed_ids=crashed_now,
            rng=rng,
        )

        link_rounds = {
            (child, parent_id): round_index
            for child, parent_id, _, round_index in links
            if repair.tree.parent.get(child) == parent_id
        }
        return NetInitResult(
            tree=repair.tree,
            slots_used=sim.current_slot + repair.slots_used,
            rounds_used=rounds_used,
            sweeps_used=sweeps_used,
            delta=delta,
            power=repair.power,
            link_rounds=link_rounds,
            trace=sim.trace,
            stored_degrees=dict(zip(ids, state.stored_degree.tolist())),
            crashed=crashed_now,
            reattached=repair.reattached,
            completed_by_repair=bool(repair.reattached) or repair.slots_used > 0,
            completion_slots=repair.slots_used,
            send_budget=sim.send_budget,
            fault_summary=sim.fault_summary(),
            fault_digest=None if sim.fault_trace is None else sim.fault_trace.digest(),
        )

    def _patch_plan(self) -> FaultPlan | None:
        """Loss environment of the next completion patch: crash windows are
        stripped (those crashes already happened), and past the lossy depth
        bound the patch runs clean so the recursion provably terminates."""
        if self.plan is None or self._completion_depth >= self._MAX_LOSSY_DEPTH:
            return None
        return self.plan.without_crashes()

    @staticmethod
    def _cycle_cuts(node_list: Sequence[Node], state: InitState) -> list[int]:
        """Nodes whose parent pointer must be cut to leave an acyclic forest.

        The slot-synchronous protocol cannot form a cycle, but a *delayed*
        acknowledgment maturing rounds late can.  One deterministic victim
        per cycle (the largest id on it) loses its pointer and re-attaches as
        an orphan.
        """
        ids = [node.id for node in node_list]
        parent = {
            ids[i]: ids[parent_pos]
            for i, parent_pos in enumerate(state.parent_pos.tolist())
            if parent_pos >= 0
        }
        color: dict[int, int] = {}
        cuts: list[int] = []
        for start in sorted(parent):
            if start in color:
                continue
            path: list[int] = []
            node = start
            # A pointer chain can visit each node at most once before
            # repeating, so the walk is bounded by the map size.
            for _ in range(len(parent) + 1):
                if node not in parent or node in color:
                    break
                color[node] = 1
                path.append(node)
                node = parent[node]
            if color.get(node) == 1:
                cuts.append(max(path[path.index(node):]))
            for visited in path:
                color[visited] = 2
        return cuts
