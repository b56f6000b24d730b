"""The per-agent lockstep ``Init`` (oracle of the array engine).

One :class:`~repro.core.init_tree.InitAgent` per node, stepped slot by slot by
the batch :class:`~repro.runtime.Simulator`: every slot polls each agent,
builds its message objects and delivers a :class:`~repro.sinr.Reception` to
each decoding listener.  ``InitialTreeBuilder.build`` must reproduce its
result and trace bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.init_tree import (
    InitAgent,
    InitialTreeBuilder,
    InitialTreeResult,
    InitState,
    validate_init_nodes,
)
from repro.core.quantities import num_rounds_for_delta
from repro.exceptions import ProtocolError
from repro.geometry import Node, diameter
from repro.runtime import Simulator, spawn_agent_rngs
from repro.sinr import Channel


def build_init_reference(
    builder: InitialTreeBuilder, nodes: Sequence[Node], rng: np.random.Generator
) -> InitialTreeResult:
    """Run ``builder``'s ``Init`` through per-node agents and ``Simulator``."""
    node_list = list(nodes)
    if len(node_list) <= 1:
        return builder.build(node_list, rng)
    validate_init_nodes(node_list)

    delta = diameter(node_list)
    rounds_per_sweep = num_rounds_for_delta(max(delta, 1.0))
    pairs_per_round = builder.constants.slot_pairs_per_round(len(node_list))
    agents = [
        InitAgent(
            node=node,
            rng=agent_rng,
            params=builder.params,
            constants=builder.constants,
            rounds_per_sweep=rounds_per_sweep,
            slot_pairs_per_round=pairs_per_round,
        )
        for node, agent_rng in zip(node_list, spawn_agent_rngs(rng, len(node_list)))
    ]
    simulator = Simulator(agents, Channel(builder.params))

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
        InitState.from_agents(agents),
        simulator.trace,
        simulator.current_slot,
        delta,
        rounds_used,
        sweeps_used,
    )
