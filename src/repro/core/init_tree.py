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
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..exceptions import ConfigurationError, ProtocolError
from ..geometry import Node, nodes_to_array
from ..runtime import ExecutionTrace, LockstepProgram, Simulator, spawn_agent_rngs
from ..sinr import CachedChannel, ExplicitPower, SINRParameters, UniformPower
from ..state import NetworkState
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


def validate_init_nodes(nodes: Sequence[Node]) -> tuple[np.ndarray, np.ndarray]:
    """Reject an ``Init`` input the protocol cannot run on, before any slot.

    Returns:
        The nodes' ids and their ``(n, 2)`` coordinates, in order.

    Raises:
        ProtocolError: if two nodes share an id.
        ConfigurationError: if a node has a NaN or infinite coordinate, or
            two nodes share a position (a zero distance is an infinite gain).
    """
    ids = np.array([node.id for node in nodes], dtype=np.int64)
    xy = nodes_to_array(nodes)
    sorted_ids = np.sort(ids)  # np.unique would import numpy.ma
    if (sorted_ids[1:] == sorted_ids[:-1]).any():
        raise ProtocolError("duplicate node ids among the Init nodes")
    xs, ys = xy[:, 0], xy[:, 1]
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
    return ids, xy


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

    A coin is ``Generator.random()``'s double: the top 53 bits of one raw
    64-bit word of the node's bit generator, ``(x >> 11) * 2**-53``.  Row
    ``i`` of the block holds node ``i``'s next raw words
    (``bit_generator.random_raw``), and a whole block is converted at once,
    so reading row ``i`` through a per-node cursor replays exactly the
    coins node ``i`` would draw one at a time.  Only rows that run out are
    refilled.
    """

    __slots__ = ("_bits", "_block", "_cursor")

    def __init__(self, rngs: Sequence[np.random.Generator]):
        self._bits = [rng.bit_generator for rng in rngs]
        self._block = self._raw_coins(range(len(self._bits)))
        self._cursor = np.zeros(len(rngs), dtype=np.intp)

    def _raw_coins(self, rows: Iterable[int]) -> np.ndarray:
        """The next block of coins of each node in ``rows``, one row each."""
        raw = np.array([self._bits[i].random_raw(_COIN_BLOCK) for i in rows], dtype=np.uint64)
        raw >>= np.uint64(11)
        return raw.reshape(-1, _COIN_BLOCK) * 2.0**-53

    def draw(self, pos: np.ndarray) -> np.ndarray:
        """One coin for each node position in ``pos`` (distinct positions)."""
        at = self._cursor[pos]
        spent = at == _COIN_BLOCK
        if np.count_nonzero(spent):
            rows = pos[spent]
            self._block[rows] = self._raw_coins(rows.tolist())
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
            active = up.nonzero()[0]
            broadcasters = active[self.coins.draw(active) < self.p_broadcast]
            self._broadcasters = broadcasters
            self._stale_hello = False
            return broadcasters, self._powers[: broadcasters.size]

        # Ack slot: an active listener whose decoded hello comes from the
        # round's length class flips its ack coin.  The class test stays on
        # math.hypot (as Node.distance_to) so its boundaries are bit-exact.
        rx, src = self._heard
        if not rx.size:
            self._acks = (_NO_POSITIONS, _NO_POSITIONS)
            return _NO_POSITIONS, self._powers[:0]
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


@dataclass(eq=False)
class InitialTreeResult:
    """Outcome of running ``Init`` on a set of nodes.

    The result keeps the run's converged per-node arrays.  The tree, its
    powers, its link rounds and the stored degrees are assembled from them
    on first read and cached, so a caller that needs only the tree's links
    reads them by position (:meth:`link_positions`) and never builds them.

    Attributes:
        nodes: the Init nodes; position ``i`` of every ``state`` array is
            ``nodes[i]``.
        state: the converged per-node state; the root is its one active
            position.
        params: the SINR parameters the round powers follow.
        slots_used: total channel slots consumed (Theorem 2's cost measure).
        rounds_used: number of protocol rounds executed (across all sweeps).
        sweeps_used: number of full round sweeps needed (1 matches the paper's
            single-pass guarantee; more indicate the practical constants
            needed extra passes).
        delta: the distance ratio of the instance.
        trace: the slot-by-slot execution trace.
    """

    nodes: list[Node]
    state: InitState
    params: SINRParameters
    slots_used: int
    rounds_used: int
    sweeps_used: int
    delta: float
    trace: ExecutionTrace

    def link_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """(child, parent) positions of every tree link, in child position order."""
        children = np.flatnonzero(~self.state.active)
        return children, self.state.parent_pos[children]

    @cached_property
    def _rows(self) -> list[tuple[int, int, int, int]]:
        """(child id, parent id, slot-pair, round) of every tree link, by child position."""
        state, nodes = self.state, self.nodes
        children, parents = self.link_positions()
        return [
            (nodes[child].id, nodes[parent].id, slot_pair, round_index)
            for child, parent, slot_pair, round_index in zip(
                children.tolist(),
                parents.tolist(),
                state.parent_slot_pair[children].tolist(),
                state.parent_round[children].tolist(),
            )
        ]

    @cached_property
    def tree(self) -> BiTree:
        """The constructed bi-tree, each link in the slot-pair that formed it."""
        root = self.nodes[int(np.flatnonzero(self.state.active)[0])]
        parent = {child: parent for child, parent, _, _ in self._rows}
        slots = {child: slot_pair for child, _, slot_pair, _ in self._rows}
        return BiTree.from_parent_map(self.nodes, root.id, parent, slots)

    @cached_property
    def power(self) -> ExplicitPower:
        """The per-link powers actually used, for schedule verification.

        Both directions of a link get its round's power; a link outside the
        tree falls back to a uniform power reaching the diameter, except on
        a lone node, which has no link to power.
        """
        powers: dict[int, float] = {}
        power_map: dict[tuple[int, int], float] = {}
        for child, parent, _, round_index in self._rows:
            if round_index not in powers:
                powers[round_index] = round_power(round_index, self.params)
            power_map[(child, parent)] = powers[round_index]
            power_map[(parent, child)] = powers[round_index]
        if len(self.nodes) == 1:
            return ExplicitPower(power_map)
        fallback = UniformPower.for_max_length(self.params, max(self.delta, 1.0))
        return ExplicitPower(power_map, fallback=fallback)

    @cached_property
    def link_rounds(self) -> dict[tuple[int, int], int]:
        """Round in which each aggregation link was formed (used by
        ``Distr-Cap`` to phase links by length class)."""
        return {(child, parent): round_index for child, parent, _, round_index in self._rows}

    @cached_property
    def stored_degrees(self) -> dict[int, int]:
        """Per node, the number of links it stored (including stray links),
        the quantity bounded by Theorem 7."""
        return dict(zip((node.id for node in self.nodes), self.state.stored_degree.tolist()))


def _holds_exactly(state: NetworkState, ids: np.ndarray, xy: np.ndarray) -> bool:
    """Whether ``state``'s live nodes are the given ids at ``xy``, in order."""
    live = state.live_slots()
    return (
        live.size == ids.size
        and np.array_equal(state.ids[live], ids)
        and np.array_equal(state.xy[live], xy)
    )


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

    def build(
        self,
        nodes: Sequence[Node],
        rng: np.random.Generator,
        *,
        state: NetworkState | None = None,
    ) -> InitialTreeResult:
        """Run ``Init`` on ``nodes`` and return the resulting bi-tree.

        Args:
            nodes: the nodes to connect.
            rng: source of every node's coin stream.
            state: the geometry store to decode from; it must hold exactly
                ``nodes``, in order (e.g. a :meth:`NetworkState.subset` of a
                larger run's store).  By default one is built over ``nodes``
                with :meth:`NetworkState.for_nodes`.

        Raises:
            ProtocolError: if more than one active node remains after
                ``max_sweeps`` sweeps (practically unreachable with defaults),
                or if two nodes share an id.
            ConfigurationError: if a node has a non-finite coordinate, or
                ``state`` does not hold exactly ``nodes``.
        """
        node_list = list(nodes)
        if not node_list:
            raise ProtocolError("cannot build a tree on zero nodes")
        ids, xy = validate_init_nodes(node_list)
        if len(node_list) == 1:
            return InitialTreeResult(
                nodes=node_list,
                state=InitState.fresh(1),
                params=self.params,
                slots_used=0,
                rounds_used=0,
                sweeps_used=0,
                delta=1.0,
                trace=ExecutionTrace(),
            )

        if state is None:
            state = NetworkState.for_nodes(node_list)
        elif not _holds_exactly(state, ids, xy):
            raise ConfigurationError("the geometry store must hold exactly the Init nodes, in order")
        delta = state.max_distance()
        rounds_per_sweep = num_rounds_for_delta(max(delta, 1.0))
        pairs_per_round = self.constants.slot_pairs_per_round(len(node_list))
        program = _InitProgram(
            node_list, self.params, self.constants, spawn_agent_rngs(rng, len(node_list))
        )
        simulator = Simulator(program, CachedChannel(self.params, state=state))
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
        """The result of a converged run, after checking its per-node state.

        Raises:
            ProtocolError: unless exactly one node is active and every other
                one has a parent.
        """
        roots = np.flatnonzero(state.active)
        if roots.size != 1:
            raise ProtocolError(f"expected exactly one root, found {roots.size}")
        orphans = np.flatnonzero(~state.active & (state.parent_pos < 0))
        if orphans.size:
            raise ProtocolError(f"inactive node {node_list[orphans[0]].id} has no recorded parent")
        return InitialTreeResult(
            nodes=list(node_list),
            state=state,
            params=self.params,
            slots_used=slots_used,
            rounds_used=rounds_used,
            sweeps_used=sweeps_used,
            delta=delta,
            trace=trace,
        )
