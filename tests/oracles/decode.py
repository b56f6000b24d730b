"""The seed per-listener SINR decode loop (oracle of ``decode_arrays``)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry import Node
from repro.sinr import Reception, SINRParameters, Transmission


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
        interference = total[j] - signals[best]
        if interference <= 0:
            sinr = np.inf
        else:
            sinr = float(signals[best] / interference)
        if sinr >= params.beta:
            t = transmissions[best]
            results[listener.id] = Reception(sender=t.sender, message=t.message, sinr=sinr)
    return results
