"""The per-agent ``Init`` protocol (oracle of the array engine).

:class:`InitAgent` is ``Init`` written as one state machine per node.  Two
references step it slot by slot:

* :func:`build_init_reference` runs one agent per node through the seed
  slot engine :class:`~tests.oracles.slot_engine.LegacySimulator`;
  ``InitialTreeBuilder.build`` must reproduce its result and trace bit for
  bit.
* :func:`build_net_init_reference` runs the agents through the per-agent
  runtime :class:`~tests.oracles.netsim.OracleNetSimulator`, crash hooks
  and delayed messages included, and assembles the result from the agents
  as the message-passing builder used to; ``NetInitBuilder.build`` must
  reproduce its result, fault trace, detector views and counters.

:func:`eager_result_values` assembles a result's tree, powers, link rounds
and stored degrees in the one pass the builder made before the result
became lazy; each lazily built value must equal it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.coins import _hash_int, _uniform_cut, seed_word
from repro.constants import AlgorithmConstants
from repro.core.bitree import BiTree
from repro.core.init_tree import (
    _INIT_STREAM,
    InitialTreeBuilder,
    InitialTreeResult,
    InitState,
    round_power,
    validate_init_nodes,
)
from repro.core.quantities import num_rounds_for_delta
from repro.core.repair import TreeRepairer
from repro.exceptions import NodeCrashedError, ProtocolError
from repro.geometry import Node, diameter
from repro.netsim import FaultyTransport, NetInitBuilder, NetInitResult, RoundDriver, Transport
from repro.obs.spans import span
from repro.sinr import Channel, ExplicitPower, Reception, SINRParameters, Transmission, UniformPower

from .agent import AckMessage, BroadcastMessage, NodeAgent
from .netsim import OracleFaultyTransport, OracleHeartbeatDetector, OracleNetSimulator
from .slot_engine import LegacySimulator

__all__ = [
    "InitAgent",
    "ReferenceNetInitBuilder",
    "build_init_reference",
    "build_net_init_reference",
    "eager_result_values",
    "make_init_agents",
    "state_from_agents",
]


@dataclass(frozen=True)
class _LinkRecord:
    """A link stored by a node, with its schedule time stamp (slot-pair index)."""

    peer_id: int
    outgoing: bool
    slot_pair: int
    round_index: int


class InitAgent(NodeAgent):
    """Per-node state machine of the ``Init`` protocol.

    The agent derives the current round and slot-pair phase from the global
    slot index using only globally known quantities (``n``, ``Delta``, the
    protocol constants), as permitted by the paper's model (Section 5).
    """

    def __init__(
        self,
        node: Node,
        seed: int,
        params: SINRParameters,
        constants: AlgorithmConstants,
        rounds_per_sweep: int,
        slot_pairs_per_round: int,
    ):
        super().__init__(node)
        self.seed = seed
        self.params = params
        self.constants = constants
        self.rounds_per_sweep = rounds_per_sweep
        self.slot_pairs_per_round = slot_pairs_per_round

        self.active = True
        self.parent_id: int | None = None
        self.parent_slot_pair: int | None = None
        self.parent_round: int | None = None
        self.records: list[_LinkRecord] = []

        self._is_broadcaster = False
        self._pending_broadcast: BroadcastMessage | None = None
        self._round_powers: dict[int, float] = {}

    # -- time bookkeeping ---------------------------------------------------

    def _slot_pair(self, slot: int) -> int:
        return slot // 2

    def _phase(self, slot: int) -> int:
        return slot % 2

    def _round(self, slot: int) -> int:
        pair = self._slot_pair(slot)
        return (pair // self.slot_pairs_per_round) % self.rounds_per_sweep + 1

    def _round_power(self, round_index: int) -> float:
        """Round power, memoized (it is evaluated once per agent per slot)."""
        power = self._round_powers.get(round_index)
        if power is None:
            power = round_power(round_index, self.params)
            self._round_powers[round_index] = power
        return power

    def _heads(self, slot: int, probability: float) -> bool:
        """This node's coin in ``slot``, hashed on its own."""
        cut = int(_uniform_cut(probability))
        return _hash_int(_INIT_STREAM, self.seed, self.node_id, slot) < cut

    # -- protocol -----------------------------------------------------------

    def act(self, slot: int) -> Transmission | None:
        phase = self._phase(slot)
        round_index = self._round(slot)

        if phase == 0:
            self._pending_broadcast = None
            self._is_broadcaster = False
            if not self.active:
                return None
            if self._heads(slot, self.constants.broadcast_probability):
                self._is_broadcaster = True
                return Transmission(
                    self.node,
                    self._round_power(round_index),
                    BroadcastMessage(sender=self.node, round_index=round_index),
                )
            return None

        # phase == 1: acknowledgment slot.
        if not self.active:
            return None
        if self._is_broadcaster:
            return None  # listen for acknowledgments
        broadcast = self._pending_broadcast
        if broadcast is None:
            return None
        distance = self.node.distance_to(broadcast.sender)
        lower, upper = 2.0 ** (round_index - 1), 2.0**round_index
        if not (lower <= distance < upper):
            return None
        if not self._heads(slot, self.constants.ack_probability):
            return None
        pair = self._slot_pair(slot)
        # Store both directions now (the paper notes this may create stray
        # links if the acknowledgment is lost; they are cleaned up later).
        self.records.append(
            _LinkRecord(peer_id=broadcast.sender_id, outgoing=False, slot_pair=pair, round_index=round_index)
        )
        self.records.append(
            _LinkRecord(peer_id=broadcast.sender_id, outgoing=True, slot_pair=pair, round_index=round_index)
        )
        return Transmission(
            self.node,
            self._round_power(round_index),
            AckMessage(
                sender=self.node, target_id=broadcast.sender_id, round_index=round_index, slot_pair=pair
            ),
        )

    def observe(self, slot: int, reception: Reception | None) -> None:
        if reception is None:
            return
        phase = self._phase(slot)
        round_index = self._round(slot)
        if phase == 0:
            if self.active and not self._is_broadcaster and isinstance(reception.message, BroadcastMessage):
                self._pending_broadcast = reception.message
            return
        # phase == 1
        if (
            self.active
            and self._is_broadcaster
            and isinstance(reception.message, AckMessage)
            and reception.message.target_id == self.node_id
        ):
            ack = reception.message
            pair = self._slot_pair(slot)
            self.parent_id = ack.sender_id
            self.parent_slot_pair = pair
            self.parent_round = round_index
            self.records.append(
                _LinkRecord(peer_id=ack.sender_id, outgoing=True, slot_pair=pair, round_index=round_index)
            )
            self.records.append(
                _LinkRecord(peer_id=ack.sender_id, outgoing=False, slot_pair=pair, round_index=round_index)
            )
            self.active = False

    def is_done(self) -> bool:
        return not self.active

    def on_crash(self, slot: int) -> None:
        # Links and parent adoption survive a crash (they are committed
        # state); only the intra-slot-pair context is volatile.
        self._pending_broadcast = None
        self._is_broadcaster = False

    def on_recover(self, slot: int) -> None:
        # The slot pair the pending broadcast belonged to has passed while
        # the node was down, so the ack it would trigger must not be sent.
        self._pending_broadcast = None
        self._is_broadcaster = False

    def stored_degree(self) -> int:
        """Number of distinct peers this node stored links with (Theorem 7's |Lu|)."""
        return len({record.peer_id for record in self.records})


def make_init_agents(
    nodes: Sequence[Node],
    rng: np.random.Generator,
    params: SINRParameters,
    constants: AlgorithmConstants,
) -> list[InitAgent]:
    """One agent per node, each hashing its coins from one seed word of ``rng``."""
    rounds_per_sweep = num_rounds_for_delta(max(diameter(nodes), 1.0))
    pairs_per_round = constants.slot_pairs_per_round(len(nodes))
    seed = seed_word(rng)
    return [
        InitAgent(
            node=node,
            seed=seed,
            params=params,
            constants=constants,
            rounds_per_sweep=rounds_per_sweep,
            slot_pairs_per_round=pairs_per_round,
        )
        for node in nodes
    ]


def state_from_agents(agents: Sequence[InitAgent]) -> InitState:
    """The :class:`InitState` the per-node machines ended in."""
    pos_by_id = {agent.node_id: i for i, agent in enumerate(agents)}
    state = InitState.fresh(len(agents))
    for i, agent in enumerate(agents):
        state.active[i] = agent.active
        state.stored_degree[i] = agent.stored_degree()
        if agent.parent_id is not None:
            state.parent_pos[i] = pos_by_id[agent.parent_id]
            state.parent_slot_pair[i] = agent.parent_slot_pair
            state.parent_round[i] = agent.parent_round
    return state


def eager_result_values(result: InitialTreeResult) -> dict[str, object]:
    """``result``'s tree, power, link rounds and stored degrees, built eagerly."""
    node_list, state, params = result.nodes, result.state, result.params
    ids = [node.id for node in node_list]
    if len(node_list) == 1:
        return {
            "tree": BiTree.from_parent_map(node_list, ids[0], {}),
            "power": ExplicitPower({}),
            "link_rounds": {},
            "stored_degrees": {ids[0]: 0},
        }
    root = int(np.flatnonzero(state.active)[0])
    parent: dict[int, int] = {}
    slots: dict[int, int] = {}
    link_rounds: dict[tuple[int, int], int] = {}
    power_map: dict[tuple[int, int], float] = {}
    powers: dict[int, float] = {}
    rows = zip(
        state.parent_pos.tolist(), state.parent_slot_pair.tolist(), state.parent_round.tolist()
    )
    for i, (parent_pos, slot_pair, round_index) in enumerate(rows):
        if i == root:
            continue
        child, parent_id = ids[i], ids[parent_pos]
        parent[child] = parent_id
        slots[child] = slot_pair
        if round_index not in powers:
            powers[round_index] = round_power(round_index, params)
        link_rounds[(child, parent_id)] = round_index
        power_map[(child, parent_id)] = powers[round_index]
        power_map[(parent_id, child)] = powers[round_index]
    fallback = UniformPower.for_max_length(params, max(result.delta, 1.0))
    return {
        "tree": BiTree.from_parent_map(node_list, ids[root], parent, slots),
        "power": ExplicitPower(power_map, fallback=fallback),
        "link_rounds": link_rounds,
        "stored_degrees": dict(zip(ids, state.stored_degree.tolist())),
    }


def build_init_reference(
    builder: InitialTreeBuilder, nodes: Sequence[Node], rng: np.random.Generator
) -> InitialTreeResult:
    """Run ``builder``'s ``Init`` through per-node agents and the seed engine."""
    node_list = list(nodes)
    if len(node_list) <= 1:
        return builder.build(node_list, rng)
    validate_init_nodes(node_list)

    delta = diameter(node_list)
    rounds_per_sweep = num_rounds_for_delta(max(delta, 1.0))
    pairs_per_round = builder.constants.slot_pairs_per_round(len(node_list))
    agents = make_init_agents(node_list, rng, builder.params, builder.constants)
    simulator = LegacySimulator(agents, Channel(builder.params))

    def active_count() -> int:
        return sum(1 for agent in agents if agent.active)

    rounds_used = 0
    sweeps_used = 0
    for sweep in range(builder.max_sweeps):
        sweeps_used = sweep + 1
        for round_index in range(1, rounds_per_sweep + 1):
            if sweep > 0 and active_count() <= 1:
                break
            rounds_used += 1
            for _ in range(pairs_per_round):
                simulator.step(label=f"init:sweep{sweep}:round{round_index}:broadcast")
                simulator.step(label=f"init:sweep{sweep}:round{round_index}:ack")
        if active_count() <= 1:
            break
    if active_count() > 1:
        raise ProtocolError(
            f"Init did not converge to a single active node within {builder.max_sweeps} sweeps"
        )
    return builder._extract_result(
        node_list,
        state_from_agents(agents),
        simulator.trace,
        simulator.current_slot,
        delta,
        rounds_used,
        sweeps_used,
    )


class ReferenceNetInitBuilder(NetInitBuilder):
    """``NetInitBuilder`` with the per-agent main run and agent-read result.

    The run goes through :class:`OracleNetSimulator` with the scalar
    transport and detector oracles.  Completion patches run through this
    class too, so a reliable run with repair is per-agent all the way down.
    """

    def _make_transport(self) -> Transport:
        transport = super()._make_transport()
        if isinstance(transport, FaultyTransport):
            return OracleFaultyTransport(transport.plan, slot_offset=transport.slot_offset)
        return transport

    def build(self, nodes: Sequence[Node], rng: np.random.Generator) -> NetInitResult:
        node_list = list(nodes)
        if len(node_list) <= 1:
            return super().build(node_list, rng)
        validate_init_nodes(node_list)

        delta = diameter(node_list)
        rounds_per_sweep = num_rounds_for_delta(max(delta, 1.0))
        pairs_per_round = self.constants.slot_pairs_per_round(len(node_list))
        agents = make_init_agents(node_list, rng, self.params, self.constants)
        detector = OracleHeartbeatDetector(
            [node.id for node in node_list],
            interval=1,
            miss_threshold=self.miss_threshold,
        )
        sim = OracleNetSimulator(
            agents, Channel(self.params), self._make_transport(), detector=detector
        )
        driver = RoundDriver(sim)

        rounds_used = 0
        sweeps_used = 0
        with span(
            "init.build", n=len(node_list), delivery=self.delivery, depth=self._completion_depth
        ):
            for sweep in range(self.max_sweeps):
                sweeps_used = sweep + 1
                with span("init.sweep", sweep=sweep):
                    for round_index in range(1, rounds_per_sweep + 1):
                        if sweep > 0 and driver.remaining_active() <= 1:
                            break
                        rounds_used += 1
                        with span("init.round", sweep=sweep, round=round_index):
                            for _ in range(pairs_per_round):
                                sim.step(label=f"init:sweep{sweep}:round{round_index}:broadcast")
                                sim.step(label=f"init:sweep{sweep}:round{round_index}:ack")
                if driver.remaining_active() <= 1:
                    break

        crashed_now = sim.crashed_ids()
        cycle_cuts = _cycle_cuts(
            {agent.node_id: agent.parent_id for agent in agents if agent.parent_id is not None}
        )
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
            if sum(1 for agent in agents if agent.active) > 1:
                raise ProtocolError(
                    f"Init did not converge to a single active node within "
                    f"{self.max_sweeps} sweeps"
                )
            return self._agent_result(node_list, agents, sim, delta, rounds_used, sweeps_used)

        if not any(node.id not in crashed_now for node in node_list):
            raise NodeCrashedError("every node crashed during Init; nothing to span")
        active_alive = [
            agent.node_id for agent in agents if agent.active and agent.node_id not in crashed_now
        ]
        if not crashed_now and not cycle_cuts and len(active_alive) == 1:
            return self._agent_result(node_list, agents, sim, delta, rounds_used, sweeps_used)
        return self._agent_repair(
            node_list, agents, sim, delta, rounds_used, sweeps_used, crashed_now, cycle_cuts, rng
        )

    def _agent_result(
        self,
        node_list: Sequence[Node],
        agents: Sequence[InitAgent],
        sim: OracleNetSimulator,
        delta: float,
        rounds_used: int,
        sweeps_used: int,
    ) -> NetInitResult:
        oracle = InitialTreeBuilder(self.params, self.constants, self.max_sweeps)._extract_result(
            node_list,
            state_from_agents(agents),
            sim.trace,
            sim.current_slot,
            delta,
            rounds_used,
            sweeps_used,
        )
        return NetInitResult(
            tree=oracle.tree,
            slots_used=oracle.slots_used,
            rounds_used=oracle.rounds_used,
            sweeps_used=oracle.sweeps_used,
            delta=oracle.delta,
            power=oracle.power,
            link_rounds=oracle.link_rounds,
            trace=oracle.trace,
            stored_degrees=oracle.stored_degrees,
            send_budget=dict(sim.send_budget),
            fault_summary=sim.fault_summary(),
            fault_trace=sim.fault_trace,
        )

    def _agent_repair(
        self,
        node_list: Sequence[Node],
        agents: Sequence[InitAgent],
        sim: OracleNetSimulator,
        delta: float,
        rounds_used: int,
        sweeps_used: int,
        crashed_now: frozenset[int],
        cycle_cuts: list[int],
        rng: np.random.Generator,
    ) -> NetInitResult:
        parent: dict[int, int] = {}
        slots: dict[int, int] = {}
        power_map: dict[tuple[int, int], float] = {}
        for agent in agents:
            if agent.parent_id is None or agent.node_id in cycle_cuts:
                continue
            assert agent.parent_slot_pair is not None and agent.parent_round is not None
            parent[agent.node_id] = agent.parent_id
            slots[agent.node_id] = agent.parent_slot_pair
            power = round_power(agent.parent_round, self.params)
            power_map[(agent.node_id, agent.parent_id)] = power
            power_map[(agent.parent_id, agent.node_id)] = power

        active_alive = [
            agent.node_id for agent in agents if agent.active and agent.node_id not in crashed_now
        ]
        if len(active_alive) == 1:
            root_id = active_alive[0]
        else:
            parentless = [node.id for node in node_list if node.id not in parent]
            alive_parentless = [nid for nid in parentless if nid not in crashed_now]
            root_id = min(alive_parentless) if alive_parentless else min(parentless)

        partial = BiTree.from_parent_map(node_list, root_id, parent, slots)
        fallback = UniformPower.for_max_length(self.params, max(delta, 1.0))
        repairer = TreeRepairer(
            self.params,
            self.constants,
            patch_builder=ReferenceNetInitBuilder(
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
            (agent.node_id, agent.parent_id): agent.parent_round
            for agent in agents
            if agent.parent_id is not None
            and agent.parent_round is not None
            and repair.tree.parent.get(agent.node_id) == agent.parent_id
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
            stored_degrees={agent.node_id: agent.stored_degree() for agent in agents},
            crashed=crashed_now,
            reattached=repair.reattached,
            completed_by_repair=bool(repair.reattached) or repair.slots_used > 0,
            completion_slots=repair.slots_used,
            send_budget=dict(sim.send_budget),
            fault_summary=sim.fault_summary(),
            fault_trace=sim.fault_trace,
        )


def _cycle_cuts(parent: dict[int, int]) -> list[int]:
    """The largest id on each parent-pointer cycle, by a colouring walk."""
    color: dict[int, int] = {}
    cuts: list[int] = []
    for start in sorted(parent):
        if start in color:
            continue
        path: list[int] = []
        node = start
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


def build_net_init_reference(
    builder: NetInitBuilder, nodes: Sequence[Node], rng: np.random.Generator
) -> NetInitResult:
    """Run ``builder``'s configuration through :class:`ReferenceNetInitBuilder`."""
    reference = ReferenceNetInitBuilder(
        builder.params,
        builder.constants,
        builder.max_sweeps,
        plan=builder.plan,
        delivery=builder.delivery,
        miss_threshold=builder.miss_threshold,
        slot_offset=builder.slot_offset,
        _completion_depth=builder._completion_depth,
    )
    return reference.build(nodes, rng)
