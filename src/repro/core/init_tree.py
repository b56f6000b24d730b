"""The initial distributed bi-tree construction ``Init`` (Section 6).

Every node starts *active*.  Time is organized into rounds ``r = 1, 2, ...``;
round ``r`` handles candidate links with length in ``[2**(r-1), 2**r)`` and
consists of ``lambda_1 * log n`` slot-pairs.  In every slot-pair each active
node independently elects to be a *broadcaster* (with probability ``p``) or a
*listener*:

* first slot: broadcasters transmit a hello carrying their id and location;
* second slot: a listener that decoded a hello from a node in the current
  length class acknowledges it (with probability ``p``); a broadcaster that
  decodes an acknowledgment addressed to it records the link pair, adopts the
  acknowledger as its parent, and becomes inactive.

All transmissions in round ``r`` use the fixed power ``~ 2 * beta * N *
2**(r*alpha)``, which keeps the link cost ``c(u, v)`` at most ``2 * beta`` for
every link the round may form.  After ``ceil(log2 Delta)`` rounds exactly one
node remains active w.h.p.; it is the root of both the aggregation and the
dissemination tree (Theorem 2).

Practical constants (see ``repro.constants``) do not guarantee the w.h.p.
single-sweep termination, so the builder optionally repeats the whole round
sweep until a single active node remains; the extra slots are included in the
reported cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..exceptions import ProtocolError
from ..geometry import Node, diameter
from ..links import Link
from ..runtime import AckMessage, BroadcastMessage, ExecutionTrace, NodeAgent, Simulator, spawn_agent_rngs
from ..sinr import Channel, ExplicitPower, Reception, SINRParameters, Transmission, UniformPower
from .bitree import BiTree
from .quantities import num_rounds_for_delta

__all__ = ["InitAgent", "InitialTreeBuilder", "InitialTreeResult", "round_power"]


def round_power(round_index: int, params: SINRParameters, slack: float = 2.0) -> float:
    """Fixed transmission power used throughout round ``round_index``.

    The paper sets it to ``2 * beta * N * 2**(r * alpha)``, the smallest power
    keeping ``c(u, v) <= 2 * beta`` for every link of length below ``2**r``.
    With zero ambient noise any positive power works; we keep the same
    length-scaling so behaviour is continuous in ``N``.
    """
    if round_index < 1:
        raise ValueError("round_index is 1-based and must be positive")
    reach = 2.0**round_index
    if params.noise > 0:
        return params.min_power_for(reach, slack)
    return params.beta * reach**params.alpha


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
        rng: np.random.Generator,
        params: SINRParameters,
        constants: AlgorithmConstants,
        rounds_per_sweep: int,
        slot_pairs_per_round: int,
    ):
        super().__init__(node, rng)
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

    # -- protocol -----------------------------------------------------------

    def act(self, slot: int) -> Transmission | None:
        action = self.act_batch(slot)
        if action is None:
            return None
        power, message = action
        return Transmission(sender=self.node, power=power, message=message)

    def act_batch(self, slot: int) -> tuple[float, Any] | None:
        phase = self._phase(slot)
        round_index = self._round(slot)

        if phase == 0:
            self._pending_broadcast = None
            self._is_broadcaster = False
            if not self.active:
                return None
            if self.rng.random() < self.constants.broadcast_probability:
                self._is_broadcaster = True
                return (
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
        if self.rng.random() >= self.constants.ack_probability:
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
        return (
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


@dataclass
class InitialTreeResult:
    """Outcome of running ``Init`` on a set of nodes.

    Attributes:
        tree: the constructed bi-tree.
        slots_used: total channel slots consumed (Theorem 2's cost measure).
        rounds_used: number of protocol rounds executed (across all sweeps).
        sweeps_used: number of full round sweeps needed (1 matches the paper's
            single-pass guarantee; more indicate the practical constants
            needed extra passes).
        delta: the distance ratio of the instance.
        power: the per-link powers actually used, for schedule verification.
        link_rounds: round in which each aggregation link was formed (used by
            ``Distr-Cap`` to phase links by length class).
        trace: the slot-by-slot execution trace.
        stored_degrees: per node, the number of links it stored (including
            stray links), the quantity bounded by Theorem 7.
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


class InitialTreeBuilder:
    """Runs the distributed ``Init`` protocol (Theorem 2).

    Args:
        params: SINR model parameters.
        constants: protocol constants (probabilities, slot-pairs per round).
        max_sweeps: how many times the full round sweep may be repeated before
            giving up.  The paper's constants need one sweep w.h.p.; the
            practical defaults occasionally need a second one.
    """

    def __init__(
        self,
        params: SINRParameters,
        constants: AlgorithmConstants = DEFAULT_CONSTANTS,
        max_sweeps: int = 20,
    ):
        if max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        self.params = params
        self.constants = constants
        self.max_sweeps = max_sweeps

    def build(self, nodes: Sequence[Node], rng: np.random.Generator) -> InitialTreeResult:
        """Run ``Init`` on ``nodes`` and return the resulting bi-tree.

        Raises:
            ProtocolError: if more than one active node remains after
                ``max_sweeps`` sweeps (practically unreachable with defaults).
        """
        node_list = list(nodes)
        if not node_list:
            raise ProtocolError("cannot build a tree on zero nodes")
        if len(node_list) == 1:
            only = node_list[0]
            tree = BiTree.from_parent_map([only], only.id, {})
            return InitialTreeResult(
                tree=tree,
                slots_used=0,
                rounds_used=0,
                sweeps_used=0,
                delta=1.0,
                power=ExplicitPower({}),
                link_rounds={},
                trace=ExecutionTrace(),
                stored_degrees={only.id: 0},
            )

        delta = diameter(node_list)
        rounds_per_sweep = num_rounds_for_delta(max(delta, 1.0))
        pairs_per_round = self.constants.slot_pairs_per_round(len(node_list))

        agent_rngs = spawn_agent_rngs(rng, len(node_list))
        agents = [
            InitAgent(
                node=node,
                rng=agent_rng,
                params=self.params,
                constants=self.constants,
                rounds_per_sweep=rounds_per_sweep,
                slot_pairs_per_round=pairs_per_round,
            )
            for node, agent_rng in zip(node_list, agent_rngs)
        ]
        # Columnar trace: the slot loop is the hot path and only aggregate
        # counts (plus on-demand records) are ever read from the result.
        simulator = Simulator(agents, Channel(self.params), trace_level="columnar")

        rounds_used = 0
        sweeps_used = 0
        for sweep in range(self.max_sweeps):
            sweeps_used = sweep + 1
            for round_index in range(1, rounds_per_sweep + 1):
                # The first sweep always runs in full (the paper's algorithm has
                # no early termination); later sweeps stop as soon as a single
                # active node remains.
                if sweep > 0 and self._active_count(agents) <= 1:
                    break
                rounds_used += 1
                for _ in range(pairs_per_round):
                    simulator.step(label=f"init:sweep{sweep}:round{round_index}:broadcast")
                    simulator.step(label=f"init:sweep{sweep}:round{round_index}:ack")
            if self._active_count(agents) <= 1:
                break
        if self._active_count(agents) > 1:
            raise ProtocolError(
                f"Init did not converge to a single active node within {self.max_sweeps} sweeps"
            )

        return self._extract_result(
            node_list, agents, simulator, delta, rounds_used, sweeps_used
        )

    @staticmethod
    def _active_count(agents: Sequence[InitAgent]) -> int:
        return sum(1 for agent in agents if agent.active)

    def _extract_result(
        self,
        node_list: Sequence[Node],
        agents: Sequence[InitAgent],
        simulator: Simulator,
        delta: float,
        rounds_used: int,
        sweeps_used: int,
    ) -> InitialTreeResult:
        node_map = {node.id: node for node in node_list}
        root_candidates = [agent.node_id for agent in agents if agent.active]
        if len(root_candidates) != 1:
            raise ProtocolError(f"expected exactly one root, found {len(root_candidates)}")
        root_id = root_candidates[0]

        parent: dict[int, int] = {}
        slots: dict[int, int] = {}
        link_rounds: dict[tuple[int, int], int] = {}
        power_map: dict[tuple[int, int], float] = {}
        for agent in agents:
            if agent.node_id == root_id:
                continue
            if agent.parent_id is None or agent.parent_slot_pair is None or agent.parent_round is None:
                raise ProtocolError(f"inactive node {agent.node_id} has no recorded parent")
            parent[agent.node_id] = agent.parent_id
            slots[agent.node_id] = agent.parent_slot_pair
            power = round_power(agent.parent_round, self.params)
            link_rounds[(agent.node_id, agent.parent_id)] = agent.parent_round
            power_map[(agent.node_id, agent.parent_id)] = power
            power_map[(agent.parent_id, agent.node_id)] = power

        tree = BiTree.from_parent_map(node_list, root_id, parent, slots)
        fallback = UniformPower.for_max_length(self.params, max(delta, 1.0))
        return InitialTreeResult(
            tree=tree,
            slots_used=simulator.current_slot,
            rounds_used=rounds_used,
            sweeps_used=sweeps_used,
            delta=delta,
            power=ExplicitPower(power_map, fallback=fallback),
            link_rounds=link_rounds,
            trace=simulator.trace,
            stored_degrees={agent.node_id: agent.stored_degree() for agent in agents},
        )
