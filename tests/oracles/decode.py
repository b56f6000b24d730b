"""The seed per-listener SINR decode loop (oracle of ``decode_arrays``), and
the single-link threshold test that used to be ``Channel.link_succeeds``."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.geometry import Node
from repro.sinr import Channel, Reception, SINRParameters, Transmission


def decode_reference(
    transmissions: Sequence[Transmission],
    active_listeners: Sequence[Node],
    dist: np.ndarray,
    powers: np.ndarray,
    params: SINRParameters,
    fade: np.ndarray | None = None,
) -> dict[int, Reception]:
    """Decode every listener in turn from a transmitter-to-listener distance matrix."""
    with np.errstate(divide="ignore"):
        received = powers[:, None] / np.maximum(dist, 1e-300) ** params.alpha
    received = np.where(dist <= 0, np.inf, received)
    if fade is not None:
        received = received * fade

    total = received.sum(axis=0) + params.noise
    results: dict[int, Reception] = {}
    for j, listener in enumerate(active_listeners):
        signals = received[:, j]
        best = int(np.argmax(signals))
        with np.errstate(invalid="ignore"):
            # A colocated transmitter's inf signal: inf - inf is the NaN
            # that decodes nothing.
            interference = total[j] - signals[best]
        if interference <= 0:
            sinr = np.inf
        else:
            sinr = float(signals[best] / interference)
        if sinr >= params.beta:
            t = transmissions[best]
            results[listener.id] = Reception(sender=t.sender, message=t.message, sinr=sinr)
    return results


def link_succeeds(
    channel: Channel,
    sender: Node,
    receiver: Node,
    sender_power: float,
    concurrent: Mapping[int, tuple[Node, float]] | Sequence[Transmission],
    slot: int | None = None,
) -> bool:
    """Whether a specific sender->receiver transmission meets the threshold.

    Args:
        channel: the channel whose parameters (and, for a
            :class:`~repro.sinr.CachedChannel`, whose distance store) decide.
        sender: transmitting node of the link under test.
        receiver: intended receiver.
        sender_power: power used by ``sender``.
        concurrent: the other simultaneous transmissions, either as a
            sequence of :class:`Transmission` or a mapping from node id to
            ``(node, power)``.
        slot: global slot index for slot-dependent gain models.
    """
    params = channel.params
    if isinstance(concurrent, Mapping):
        others = [(node, power) for node, power in concurrent.values()]
    else:
        others = [(t.sender, t.power) for t in concurrent]
    others = [(node, power) for node, power in others if node.id != sender.id]
    if any(node.id == receiver.id for node, _ in others):
        return False  # half-duplex: the receiver is busy transmitting
    distance = sender.distance_to(receiver)
    if distance <= 0:
        return False
    signal = sender_power / distance**params.alpha
    model = params.effective_gain_model
    if model is not None:
        signal_fade = model.fade_pairs(np.array([sender.id]), np.array([receiver.id]), slot)
        if signal_fade is not None:
            signal *= float(signal_fade[0])
    if others:
        powers = np.array([power for _, power in others], dtype=float)
        dist = _distances_to_node(channel, receiver, [node for node, _ in others])
        received = powers / np.maximum(dist, 1e-300) ** params.alpha
        if model is not None:
            cross_fade = model.fade_pairs(
                np.array([node.id for node, _ in others], dtype=np.int64),
                np.full(len(others), receiver.id, dtype=np.int64),
                slot,
            )
            if cross_fade is not None:
                received = received * cross_fade
        interference = float(received.sum())
    else:
        interference = 0.0
    return signal / (params.noise + interference) >= params.beta


def _distances_to_node(channel: Channel, receiver: Node, nodes: Sequence[Node]) -> np.ndarray:
    """Distances from each of ``nodes`` to ``receiver``: gathered from a
    cached channel's store when every node is in its universe, else from
    the coordinates."""
    cache = getattr(channel, "cache", None)
    if cache is not None:
        try:
            rx = cache.index_of_id(receiver.id)
            idx = np.array([cache.index_of_id(n.id) for n in nodes], dtype=np.intp)
        except KeyError:
            pass
        else:
            return cache.state.distance_rect(cache.slots[idx], cache.slots[[rx]])[:, 0]
    xy = np.array([[n.x, n.y] for n in nodes], dtype=float)
    return np.hypot(xy[:, 0] - receiver.x, xy[:, 1] - receiver.y)
