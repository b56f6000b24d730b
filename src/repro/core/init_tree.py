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

Init is a local algorithm: in every slot each node applies a pure function of
its own state, its own coin and what it decoded.  It is therefore written once,
as a :class:`~repro.runtime.LockstepProgram` - the per-node state is a set of
arrays and each slot is one NumPy step over the whole node set.
:class:`InitialTreeBuilder` steps it with the lockstep
:class:`~repro.runtime.Simulator`; ``repro.netsim``'s builder steps the same
program over a lossy transport, through its crash and recovery hooks and its
handling of delayed messages.  Every node draws its coins from its own
stream, so runs are reproducible bit for bit; the test suite keeps a per-node
state machine of the protocol as the oracle both builders are pinned to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..exceptions import ConfigurationError, ProtocolError
from ..geometry import Node, diameter
from ..runtime import ExecutionTrace, LockstepProgram, Simulator, spawn_agent_rngs
from ..sinr import Channel, ExplicitPower, SINRParameters, UniformPower
from .bitree import BiTree
from .quantities import num_rounds_for_delta

__all__ = [
    "InitState",
    "InitialTreeBuilder",
    "InitialTreeResult",
    "round_power",
    "validate_init_nodes",
]

#: Coins pre-drawn per node each time the array engine refills its stream.
_COIN_BLOCK = 64

_NO_POSITIONS = np.zeros(0, dtype=np.intp)


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


def validate_init_nodes(nodes: Sequence[Node]) -> None:
    """Reject an ``Init`` input the protocol cannot run on, before any slot.

    Raises:
        ProtocolError: if two nodes share an id.
        ConfigurationError: if a node has a NaN or infinite coordinate, or
            two nodes share a position (a zero distance is an infinite gain).
    """
    ids = [node.id for node in nodes]
    if len(set(ids)) != len(ids):
        raise ProtocolError("duplicate node ids among the Init nodes")
    xs = np.array([node.x for node in nodes], dtype=float)
    ys = np.array([node.y for node in nodes], dtype=float)
    finite = np.isfinite(xs) & np.isfinite(ys)
    if not finite.all():
        bad = nodes[int(np.argmin(finite))]
        raise ConfigurationError(f"node {bad.id} has a non-finite coordinate ({bad.x}, {bad.y})")
    # Sorted by (x, y), coincident nodes are neighbours.
    order = np.lexsort((ys, xs))
    same = (np.diff(xs[order]) == 0) & (np.diff(ys[order]) == 0)
    if same.any():
        k = int(np.argmax(same))
        first, second = nodes[int(order[k])], nodes[int(order[k + 1])]
        raise ConfigurationError(
            f"nodes {first.id} and {second.id} share the position ({first.x}, {first.y})"
        )


@dataclass
class InitState:
    """Per-node outcome of an ``Init`` run; entry ``i`` is node position ``i``.

    Attributes:
        active: whether the node is still active (the root, once converged).
        parent_pos: position of the adopted parent, ``-1`` while none.
        parent_slot_pair: slot-pair index in which the parent was adopted.
        parent_round: round in which the parent was adopted.
        stored_degree: number of distinct peers the node stored links with.
    """

    active: np.ndarray
    parent_pos: np.ndarray
    parent_slot_pair: np.ndarray
    parent_round: np.ndarray
    stored_degree: np.ndarray

    @classmethod
    def fresh(cls, n: int) -> "InitState":
        """Every node active, parentless and with no stored link."""
        return cls(
            active=np.ones(n, dtype=bool),
            parent_pos=np.full(n, -1, dtype=np.intp),
            parent_slot_pair=np.zeros(n, dtype=np.int64),
            parent_round=np.zeros(n, dtype=np.int64),
            stored_degree=np.zeros(n, dtype=np.int64),
        )


class _CoinStreams:
    """Every node's private coin stream, read from pre-drawn blocks.

    ``Generator.random(B)`` returns the same numbers as ``B`` scalar
    ``random()`` calls, so reading row ``i`` of the block through a per-node
    cursor replays exactly the coins node ``i`` would draw one at a time
    from the same generator.  Only rows that run out are refilled.
    """

    def __init__(self, rngs: Sequence[np.random.Generator]):
        self._rngs = rngs
        self._block = np.empty((len(rngs), _COIN_BLOCK))
        for row, rng in zip(self._block, rngs):
            row[:] = rng.random(_COIN_BLOCK)
        self._cursor = np.zeros(len(rngs), dtype=np.intp)

    def draw(self, pos: np.ndarray) -> np.ndarray:
        """One coin for each node position in ``pos`` (distinct positions)."""
        at = self._cursor[pos]
        spent = at == _COIN_BLOCK
        if spent.any():
            for i in pos[spent].tolist():
                self._block[i] = self._rngs[i].random(_COIN_BLOCK)
            at[spent] = 0
        self._cursor[pos] = at + 1
        return self._block[pos, at]


class _InitProgram(LockstepProgram):
    """``Init`` as an array program: one NumPy step per slot.

    Node ``i`` is position ``i`` of the node list.  Even slots are the
    broadcast half of a slot-pair, odd slots its ack half.  A hello carries
    only its sender; an ack also carries the broadcaster it acknowledges.

    The message-passing runtime adds crashes and stale frames.  A crash or a
    recovery wipes the node's slot-pair context (the hello it heard, whether
    it broadcast), and a crashed node flips no coin until it recovers.  A
    delayed frame is handled as the node would handle any frame in the slot
    it matures in: a hello heard in a broadcast slot counts as heard, an ack
    in an ack slot is adopted by an active broadcaster of the pair it
    targets, and anything else is ignored.
    """

    def __init__(
        self,
        node_list: Sequence[Node],
        params: SINRParameters,
        constants: AlgorithmConstants,
        rngs: Sequence[np.random.Generator],
    ):
        n = len(node_list)
        self.nodes = node_list
        self.params = params
        self.p_broadcast = constants.broadcast_probability
        self.p_ack = constants.ack_probability
        self.xs = [node.x for node in node_list]
        self.ys = [node.y for node in node_list]
        self.coins = _CoinStreams(rngs)
        self.state = InitState.fresh(n)
        self._round = 0
        self._powers = np.empty(n)
        self._lower = self._upper = 0.0
        #: broadcasters of the current pair.
        self._broadcasters = _NO_POSITIONS
        #: (listeners, senders) of the current pair's broadcast slot.
        self._heard = (_NO_POSITIONS, _NO_POSITIONS)
        #: whether a stale hello was heard in the current pair; its ack may
        #: then target a node that is not one of the pair's broadcasters.
        self._stale_hello = False
        #: (ackers, acked broadcasters) of the current pair's ack slot.
        self._acks = (_NO_POSITIONS, _NO_POSITIONS)
        #: acked broadcaster of each acker during an ack slot, ``-1`` elsewhere.
        self._target = np.full(n, -1, dtype=np.intp)
        #: crashed positions, once the runtime has reported a crash.
        self._down: np.ndarray | None = None
        #: (node, peer) positions of every stored link, both directions alike.
        self._links: list[tuple[np.ndarray, np.ndarray]] = []

    def active_count(self) -> int:
        return int(np.count_nonzero(self.state.active))

    def begin_round(self, round_index: int) -> None:
        """Set the fixed power and the length class of round ``round_index``."""
        self._round = round_index
        self._powers.fill(round_power(round_index, self.params))
        self._lower, self._upper = 2.0 ** (round_index - 1), 2.0**round_index

    def transmit(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        state = self.state
        if slot % 2 == 0:
            # Broadcast slot: every active node that is up flips its
            # broadcast coin.
            up = state.active if self._down is None else state.active & ~self._down
            active = np.flatnonzero(up)
            broadcasters = active[self.coins.draw(active) < self.p_broadcast]
            self._broadcasters = broadcasters
            self._stale_hello = False
            return broadcasters, self._powers[: broadcasters.size]

        # Ack slot: an active listener whose decoded hello comes from the
        # round's length class flips its ack coin.  The class test stays on
        # math.hypot (as Node.distance_to) so its boundaries are bit-exact.
        rx, src = self._heard
        heard = state.active[rx]
        ackers, targets = rx[heard], src[heard]
        if ackers.size:
            xs, ys = self.xs, self.ys
            lower, upper = self._lower, self._upper
            in_class = [
                lower <= math.hypot(xs[a] - xs[b], ys[a] - ys[b]) < upper
                for a, b in zip(ackers.tolist(), targets.tolist())
            ]
            ackers, targets = ackers[in_class], targets[in_class]
            acks = self.coins.draw(ackers) < self.p_ack
            ackers, targets = ackers[acks], targets[acks]
            # An acker stores the link whether or not its ack gets through.
            self._links.append((ackers, targets))
        self._acks = (ackers, targets)
        return ackers, self._powers[: ackers.size]

    def receive(self, slot: int, listeners: np.ndarray, senders: np.ndarray) -> None:
        if slot % 2 == 0:
            self._heard = (listeners, senders)
            return
        # A listener that decodes an ack addressed to it is one of this
        # pair's broadcasters (ack targets are, unless a stale hello drew
        # the ack): it adopts the acker as parent and retires.
        if listeners.size:
            adopted = self.message(slot, senders) == listeners
            if self._stale_hello:
                adopted &= self._broadcast_now(listeners)
            self._adopt(slot, listeners[adopted], senders[adopted])

    def _adopt(self, slot: int, children: np.ndarray, parents: np.ndarray) -> None:
        state = self.state
        state.parent_pos[children] = parents
        state.parent_slot_pair[children] = slot // 2
        state.parent_round[children] = self._round
        state.active[children] = False
        self._links.append((children, parents))

    def _broadcast_now(self, positions: np.ndarray) -> np.ndarray:
        """Which of ``positions`` are active and broadcast in this pair."""
        mask = np.zeros(len(self.nodes), dtype=bool)
        mask[self._broadcasters] = True
        return mask[positions] & self.state.active[positions]

    # -- message-passing runtime hooks --------------------------------------

    def done(self) -> np.ndarray:
        return ~self.state.active

    def message(self, slot: int, senders: np.ndarray) -> np.ndarray:
        """``-1`` for a hello, the acknowledged position for an ack."""
        if slot % 2 == 0:
            return np.full(senders.size, -1, dtype=np.intp)
        ackers, targets = self._acks
        target = self._target
        target[ackers] = targets
        sent = target[senders]
        target[ackers] = -1
        return sent

    def receive_late(
        self, slot: int, listeners: np.ndarray, senders: np.ndarray, messages: np.ndarray
    ) -> None:
        if slot % 2 == 0:
            hello = messages < 0
            if hello.any():
                rx = np.concatenate((self._heard[0], listeners[hello]))
                src = np.concatenate((self._heard[1], senders[hello]))
                # Ackers transmit in position order, as every fresh listener.
                order = np.argsort(rx, kind="stable")
                self._heard = (rx[order], src[order])
                self._stale_hello = True
            return
        adopted = (messages == listeners) & self._broadcast_now(listeners)
        self._adopt(slot, listeners[adopted], senders[adopted])

    def on_crash(self, positions: np.ndarray, slot: int) -> None:
        if self._down is None:
            self._down = np.zeros(len(self.nodes), dtype=bool)
        self._down[positions] = True
        self._forget(positions)

    def on_recover(self, positions: np.ndarray, slot: int) -> None:
        assert self._down is not None
        self._down[positions] = False
        self._forget(positions)

    def _forget(self, positions: np.ndarray) -> None:
        """Drop the slot-pair context of ``positions``; links and parents stay."""
        gone = np.zeros(len(self.nodes), dtype=bool)
        gone[positions] = True
        rx, src = self._heard
        kept = ~gone[rx]
        self._heard = (rx[kept], src[kept])
        self._broadcasters = self._broadcasters[~gone[self._broadcasters]]

    def finish(self) -> InitState:
        """The final state, with stored degrees counted from the link log."""
        n = len(self.nodes)
        if self._links:
            nodes = np.concatenate([node for node, _ in self._links])
            peers = np.concatenate([peer for _, peer in self._links])
            # Sort-and-compare rather than np.unique, which imports numpy.ma.
            links = np.sort(nodes * n + peers)
            first = np.ones(links.size, dtype=bool)
            first[1:] = links[1:] != links[:-1]
            self.state.stored_degree[:] = np.bincount(links[first] // n, minlength=n)
        return self.state


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
                ``max_sweeps`` sweeps (practically unreachable with defaults),
                or if two nodes share an id.
            ConfigurationError: if a node has a non-finite coordinate.
        """
        node_list = list(nodes)
        if not node_list:
            raise ProtocolError("cannot build a tree on zero nodes")
        validate_init_nodes(node_list)
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
        program = _InitProgram(
            node_list, self.params, self.constants, spawn_agent_rngs(rng, len(node_list))
        )
        simulator = Simulator(program, Channel(self.params))
        step = simulator.step

        rounds_used = 0
        sweeps_used = 0
        for sweep in range(self.max_sweeps):
            sweeps_used = sweep + 1
            for round_index in range(1, rounds_per_sweep + 1):
                # The first sweep always runs in full (the paper's algorithm has
                # no early termination); later sweeps stop as soon as a single
                # active node remains.
                if sweep > 0 and program.active_count() <= 1:
                    break
                rounds_used += 1
                program.begin_round(round_index)
                broadcast = f"init:sweep{sweep}:round{round_index}:broadcast"
                ack = f"init:sweep{sweep}:round{round_index}:ack"
                for _ in range(pairs_per_round):
                    step(broadcast)
                    step(ack)
            if program.active_count() <= 1:
                break
        if program.active_count() > 1:
            raise ProtocolError(
                f"Init did not converge to a single active node within {self.max_sweeps} sweeps"
            )

        return self._extract_result(
            node_list,
            program.finish(),
            simulator.trace,
            simulator.current_slot,
            delta,
            rounds_used,
            sweeps_used,
        )

    def _extract_result(
        self,
        node_list: Sequence[Node],
        state: InitState,
        trace: ExecutionTrace,
        slots_used: int,
        delta: float,
        rounds_used: int,
        sweeps_used: int,
    ) -> InitialTreeResult:
        """Assemble the result from a converged run's per-node state."""
        roots = np.flatnonzero(state.active)
        if roots.size != 1:
            raise ProtocolError(f"expected exactly one root, found {roots.size}")
        root = int(roots[0])
        ids = [node.id for node in node_list]

        parent: dict[int, int] = {}
        slots: dict[int, int] = {}
        link_rounds: dict[tuple[int, int], int] = {}
        power_map: dict[tuple[int, int], float] = {}
        powers: dict[int, float] = {}
        rows = zip(
            state.parent_pos.tolist(),
            state.parent_slot_pair.tolist(),
            state.parent_round.tolist(),
        )
        for i, (parent_pos, slot_pair, round_index) in enumerate(rows):
            if i == root:
                continue
            if parent_pos < 0:
                raise ProtocolError(f"inactive node {ids[i]} has no recorded parent")
            child, parent_id = ids[i], ids[parent_pos]
            parent[child] = parent_id
            slots[child] = slot_pair
            if round_index not in powers:
                powers[round_index] = round_power(round_index, self.params)
            link_rounds[(child, parent_id)] = round_index
            power_map[(child, parent_id)] = powers[round_index]
            power_map[(parent_id, child)] = powers[round_index]

        tree = BiTree.from_parent_map(node_list, ids[root], parent, slots)
        fallback = UniformPower.for_max_length(self.params, max(delta, 1.0))
        return InitialTreeResult(
            tree=tree,
            slots_used=slots_used,
            rounds_used=rounds_used,
            sweeps_used=sweeps_used,
            delta=delta,
            power=ExplicitPower(power_map, fallback=fallback),
            link_rounds=link_rounds,
            trace=trace,
            stored_degrees=dict(zip(ids, state.stored_degree.tolist())),
        )
