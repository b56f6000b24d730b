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
handling of delayed messages.  A node's coin in slot ``t`` is the counter
hash of ``(_INIT_STREAM, seed, node id, t)`` (:mod:`repro.coins`) for one
seed word read from the builder's generator, so it depends on no polling
order; the program hashes each round's coins in one table when the round
opens.  Runs are reproducible bit for bit; the test suite keeps a per-node
state machine of the protocol, flipping the same coins one at a time, as the
oracle both builders are pinned to.

TreeViaCapacity's inner builds, whose trace nobody reads, also skip the
slot-pairs that provably form no link.  A listener acks only a hello from the
round's length class, so a pair in which no broadcaster has an active node at
such a distance sends no ack, stores no link and retires nobody.  Each round
opens with the list of active pairs in the class (a superset of the pairs
``transmit``'s class test admits), read from the store's attenuations; a
broadcast slot whose broadcasters have no listed partner is neither decoded
nor followed by its ack slot, and once no pair remains the rest of the round
passes without a slot stepped.  Every coin is a hash of its slot, so the
skipped slots change no later coin: the tree, the stored degrees and the
slot, round and sweep counts are those of a run that steps every slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from ..coins import _hash_u64, _mix, _uniform_cut, seed_word
from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..exceptions import ConfigurationError, ProtocolError
from ..geometry import Node, nodes_to_array
from ..obs.runtime import OBS
from ..runtime import ExecutionTrace, LockstepProgram, Simulator
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

#: Stream tag of Init's coins: node ``i``'s coin in slot ``t`` is the hash of
#: ``(_INIT_STREAM, seed, id_i, t)`` (:mod:`repro.coins`).
_INIT_STREAM = 0x494E4954

_NO_POSITIONS = np.zeros(0, dtype=np.intp)

#: Relative widening of a round's attenuation class bounds.  It dwarfs the
#: few ulps between the store's ``d**alpha`` and ``math.hypot(...)**alpha``,
#: so the pair certificate covers every pair ``transmit``'s class test admits.
_WIDEN = 1e-9

#: Cells of the attenuation rows the certificate gathers at a time.
_BLOCK_CELLS = 1 << 15


def _row_blocks(
    store: NetworkState, slots: np.ndarray, alpha: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(rows, att)`` over blocks of ``slots``: ``att`` holds the rows'
    whole attenuation rows (every capacity column), a fresh array per block."""
    step = max(1, _BLOCK_CELLS // store.capacity)
    for lo in range(0, slots.size, step):
        rows = slots[lo : lo + step]
        yield rows, store.attenuation_rect(alpha, rows, None)


def _nearest_attenuation(store: NetworkState, alpha: float, n: int) -> np.ndarray:
    """Each of the first ``n`` slots' smallest attenuation to another slot."""
    nearest = []
    for rows, att in _row_blocks(store, np.arange(n, dtype=np.intp), alpha):
        att[np.arange(rows.size), rows] = np.inf
        nearest.append(att.min(axis=1))
    return np.concatenate(nearest)


def _class_pairs(
    store: NetworkState,
    alpha: float,
    rows: np.ndarray,
    col_mask: np.ndarray,
    low: float,
    high: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(row, col)`` slot pairs, ``row`` in ``rows`` and ``col_mask[col]``
    true, whose attenuation lies in ``[low, high)``."""
    firsts, seconds = [_NO_POSITIONS], [_NO_POSITIONS]
    for block, att in _row_blocks(store, rows, alpha):
        i, j = ((att >= low) & (att < high)).nonzero()
        kept = col_mask[j]
        firsts.append(block[i[kept]])
        seconds.append(j[kept])
    return np.concatenate(firsts), np.concatenate(seconds)


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

    Given a ``store`` (slot ``i`` holding node ``i``, no free slot), the
    program also keeps the pair certificate of TreeViaCapacity's inner
    builds (module docstring): a broadcast slot whose broadcasters have no
    listed partner transmits nothing, and :attr:`live` turns false once no
    pair remains.
    """

    def __init__(
        self,
        node_list: Sequence[Node],
        params: SINRParameters,
        constants: AlgorithmConstants,
        seed: int,
        store: NetworkState | None = None,
    ):
        n = len(node_list)
        self.nodes = node_list
        self.params = params
        self.xs = [node.x for node in node_list]
        self.ys = [node.y for node in node_list]
        self.state = InitState.fresh(n)
        #: each node's coin key, the hash of ``(_INIT_STREAM, seed, id)``.
        ids = np.array([node.id for node in node_list], dtype=np.int64)
        self._keys = _hash_u64(_INIT_STREAM, seed, ids)
        #: heads bounds of a round's rows: broadcast and ack slots alternate.
        p_broadcast, p_ack = constants.broadcast_probability, constants.ack_probability
        cuts = [_uniform_cut(p_broadcast), _uniform_cut(p_ack)] * constants.slot_pairs_per_round(n)
        self._cuts = np.array(cuts, dtype=np.uint64)[:, None]
        #: the round's coins: row ``t`` is slot ``_first_slot + t``, column
        #: ``_column[i]`` node position ``i``.
        self._coins = np.zeros((0, 0), dtype=bool)
        self._first_slot = 0
        self._column = np.zeros(n, dtype=np.intp)
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
        #: the store the certificate reads, ``None`` when every pair is stepped.
        self._store = store
        #: each position's smallest attenuation within the node set, which
        #: bounds it within every active subset.
        self._nearest = None if store is None else _nearest_attenuation(store, params.alpha, n)
        #: the round's listed pairs whose ends are both still active.
        self._pairs = (_NO_POSITIONS, _NO_POSITIONS)
        #: per position, whether it is an end of a listed pair.
        self._partner: np.ndarray | None = None
        #: whether a listed pair remains in the round.
        self.live = True
        #: slot-pairs skipped: no broadcast decode, no ack slot.
        self.skipped_pairs = 0

    def active_count(self) -> int:
        return int(np.count_nonzero(self.state.active))

    def begin_round(self, round_index: int, slot: int) -> None:
        """Open round ``round_index`` at ``slot`` (a broadcast slot).

        Sets the round's fixed power and length class, and flips every coin
        of the round in one table: a column per node active now (the active
        set only shrinks), heads when the node's hash of the slot is below
        the broadcast or ack bound.  With a store it first lists the round's
        pairs, and flips no coin in a round with none.
        """
        self._round = round_index
        self._powers.fill(round_power(round_index, self.params))
        self._lower, self._upper = 2.0 ** (round_index - 1), 2.0**round_index
        active = self.state.active.nonzero()[0]
        if self._store is not None:
            alpha = self.params.alpha
            high = self._upper**alpha * (1 + _WIDEN)
            candidates = active[self._nearest[active] < high]
            low = self._lower**alpha * (1 - _WIDEN)
            self._pairs = _class_pairs(
                self._store, alpha, candidates, self.state.active, low, high
            )
            self._refresh_partners()
            if not self.live:
                return
        self._column[active] = np.arange(active.size)
        slots = np.arange(slot, slot + self._cuts.size, dtype=np.uint64)[:, None]
        self._coins = _mix(self._keys[active] ^ slots) < self._cuts
        self._first_slot = slot

    def transmit(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        state = self.state
        coins = self._coins[slot - self._first_slot]
        if slot % 2 == 0:
            # Broadcast slot: every active node that is up flips its
            # broadcast coin.
            up = state.active if self._down is None else state.active & ~self._down
            active = up.nonzero()[0]
            broadcasters = active[coins[self._column[active]]]
            if self._partner is not None and not self._partner[broadcasters].any():
                # No ack can follow: skip the decode (and the ack slot).
                broadcasters = _NO_POSITIONS
                self.skipped_pairs += 1
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
            acks = coins[self._column[ackers]]
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
        if self._partner is not None and children.size:
            self._refresh_partners()

    def _refresh_partners(self) -> None:
        """Drop the listed pairs with a retired end; mark the remaining ends."""
        first, second = self._pairs
        active = self.state.active
        kept = active[first] & active[second]
        first, second = first[kept], second[kept]
        self._pairs = (first, second)
        partner = np.zeros(len(self.nodes), dtype=bool)
        partner[first] = True
        partner[second] = True
        self._partner = partner
        self.live = bool(first.size)

    def heard_any(self) -> bool:
        """Whether a hello was decoded in the current pair's broadcast slot;
        without one its ack slot sends nothing."""
        return bool(self._heard[0].size)

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
        trace: the slot-by-slot execution trace; empty for TreeViaCapacity's
            inner builds, which record none.
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
        _inner: bool = False,
    ) -> InitialTreeResult:
        """Run ``Init`` on ``nodes`` and return the resulting bi-tree.

        Args:
            nodes: the nodes to connect.
            rng: source of the one seed word every node's coins hash.
            state: the geometry store to decode from; it must hold exactly
                ``nodes``, in order (e.g. a :meth:`NetworkState.subset` of a
                larger run's store).  By default one is built over ``nodes``
                with :meth:`NetworkState.for_nodes`.
            _inner: private to :class:`TreeViaCapacity`, for its own
                populations: subsets of a deployment it has validated, each
                with the store it gathered for them (slot ``i`` holding
                ``nodes[i]``, no free slot), and a trace it never reads.  Skips the input
                and store checks, records no trace (the result's stays
                empty) and skips the slot-pairs that provably form no link
                (module docstring); the state and the slot, round and sweep
                counts are those of a full run.

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
        if not _inner:
            ids, xy = validate_init_nodes(node_list)
            if len(node_list) > 1 and state is not None and not _holds_exactly(state, ids, xy):
                raise ConfigurationError(
                    "the geometry store must hold exactly the Init nodes, in order"
                )
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
        delta = state.max_distance()
        rounds_per_sweep = num_rounds_for_delta(max(delta, 1.0))
        pairs_per_round = self.constants.slot_pairs_per_round(len(node_list))
        program = _InitProgram(
            node_list, self.params, self.constants, seed_word(rng), state if _inner else None
        )
        simulator = Simulator(program, CachedChannel(self.params, state=state), record=not _inner)
        step, advance = simulator.step, simulator.advance

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
                program.begin_round(round_index, simulator.current_slot)
                broadcast = f"init:sweep{sweep}:round{round_index}:broadcast"
                ack = f"init:sweep{sweep}:round{round_index}:ack"
                if not _inner:
                    for _ in range(pairs_per_round):
                        step(broadcast)
                        step(ack)
                    continue
                end = simulator.current_slot + 2 * pairs_per_round
                while program.live and simulator.current_slot < end:
                    step(broadcast)
                    if program.heard_any():
                        step(ack)
                    else:
                        advance(1)
                program.skipped_pairs += (end - simulator.current_slot) // 2
                advance(end - simulator.current_slot)
            if program.active_count() <= 1:
                break
        if program.active_count() > 1:
            raise ProtocolError(
                f"Init did not converge to a single active node within {self.max_sweeps} sweeps"
            )
        if _inner and OBS.enabled:
            OBS.registry.inc("core.init.skipped_pairs", program.skipped_pairs)

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
