"""``TreeViaCapacity`` on Init's objects (oracle of the positional iteration).

Before TreeViaCapacity read ``T(M)`` off Init's parent array and selected by
position, every iteration took the Init result's bi-tree, listed its
aggregation links as a :class:`LinkSet`, computed ``T(M)`` with
:func:`degree_bounded_subset` and handed the subset (or every tree link,
when it was empty) to the selector on link objects together with the
result's full ``link_rounds``; the next population's store was gathered
for its nodes.  That loop is kept here, its selectors the link-object ones
(:class:`LinkPathDistrCapSelector`, :class:`LinkPathMeanPowerSelector`), so
the parity tests can show the positional one makes the same draws, the
same selections and the same tree.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core import (
    DistrCapResult,
    InitialTreeBuilder,
    TreeViaCapacity,
    TreeViaCapacityResult,
    degree_bounded_subset,
)
from repro.core.bitree import BiTree
from repro.core.init_tree import validate_init_nodes
from repro.core.mean_power_selection import MeanPowerSelectionResult
from repro.core.tree_via_capacity import IterationRecord
from repro.exceptions import ProtocolError
from repro.geometry import Node
from repro.links import LinkSet
from repro.sinr import ExplicitPower, MeanPower
from repro.state import NetworkState

from .distr_cap import LinkPathDistrCapSelector
from .mean_power import LinkPathMeanPowerSelector

__all__ = ["ReferenceTreeViaCapacity"]


class ReferenceTreeViaCapacity(TreeViaCapacity):
    """``TreeViaCapacity`` whose iterations read Init's tree as link objects."""

    def build(self, nodes: Sequence[Node], rng: np.random.Generator) -> TreeViaCapacityResult:
        node_list = list(nodes)
        if not node_list:
            raise ProtocolError("cannot build a tree on zero nodes")
        validate_init_nodes(node_list)
        all_nodes = {node.id: node for node in node_list}
        if len(node_list) == 1:
            tree = BiTree.from_parent_map(node_list, node_list[0].id, {})
            return TreeViaCapacityResult(
                tree=tree, power=ExplicitPower({}), power_mode=self.power_mode
            )

        state = NetworkState.for_nodes(node_list)
        delta = state.max_distance()
        cap = self.max_iterations
        if cap is None:
            cap = 40 * int(math.ceil(math.log2(max(len(node_list), 2)))) + 40

        self._mean_power = MeanPower.for_max_length(self.params, max(delta, 1.0))
        builder = InitialTreeBuilder(self.params, self.constants)
        selector: LinkPathDistrCapSelector | LinkPathMeanPowerSelector = (
            LinkPathDistrCapSelector(self.params, self.constants)
            if self.power_mode == "arbitrary"
            else LinkPathMeanPowerSelector(self.params)
        )
        population = list(node_list)
        parent: dict[int, int] = {}
        slot_of_node: dict[int, int] = {}
        power_map: dict[tuple[int, int], float] = {}
        iterations: list[IterationRecord] = []
        construction_slots = 0

        iteration = 0
        while len(population) > 1:
            if iteration >= cap:
                raise ProtocolError(
                    f"TreeViaCapacity did not converge within {cap} iterations "
                    f"({len(population)} nodes still active)"
                )
            init_result = builder.build(population, rng, state=state)
            tree_links = init_result.tree.aggregation_links()
            subset = degree_bounded_subset(tree_links, self.constants.degree_cap_rho)
            candidates = subset.subset if len(subset.subset) > 0 else tree_links

            outcome: DistrCapResult | MeanPowerSelectionResult = (
                selector.select(candidates, rng, link_rounds=init_result.link_rounds, state=state)
                if isinstance(selector, LinkPathDistrCapSelector)
                else selector.select(candidates, rng, power=self._mean_power)
            )
            selected, selection_slots = outcome.selected, outcome.slots_used
            if len(selected) == 0:
                shortest = min(tree_links, key=lambda link: (link.length, link.endpoint_ids))
                selected = LinkSet([shortest])
            selected = self._enforce_slot_structure(selected)

            selected, slot_power = self._power_for_slot(selected)
            for link in selected:
                parent[link.sender.id] = link.receiver.id
                slot_of_node[link.sender.id] = iteration
                power_map[link.endpoint_ids] = slot_power.power(link)

            retired = {link.sender.id for link in selected}
            population = [node for node in population if node.id not in retired]
            state = state.subset([state.slot_of_id(node.id) for node in population])
            construction_slots += init_result.slots_used + selection_slots
            iterations.append(
                IterationRecord(
                    index=iteration,
                    population=len(retired) + len(population),
                    tree_links=len(tree_links),
                    candidate_links=len(candidates),
                    selected_links=len(selected),
                    init_slots=init_result.slots_used,
                    selection_slots=selection_slots,
                    progress_fraction=len(selected) / max(len(tree_links), 1),
                )
            )
            iteration += 1

        root_id = population[0].id
        tree = BiTree.from_parent_map(list(all_nodes.values()), root_id, parent, slot_of_node)
        power = self._finalize_power(tree, power_map, delta)
        aggregation_feasible, dissemination_feasible = self._verify(tree, power)
        return TreeViaCapacityResult(
            tree=tree,
            power=power,
            power_mode=self.power_mode,
            iterations=iterations,
            construction_slots=construction_slots,
            delta=delta,
            aggregation_feasible=aggregation_feasible,
            dissemination_feasible=dissemination_feasible,
        )
