"""``TreeViaCapacity`` (Algorithm 1): matching centralized schedule lengths.

The driver repeatedly runs ``Init`` on the still-active node set ``P_i``,
extracts the O(1)-sparse degree-bounded subset ``T(M)`` of the resulting tree
(Theorem 13), selects a feasible subset ``T'`` of it - via ``Distr-Cap`` for
arbitrary power (Section 8.2) or mean-power sampling (Section 8.1) - and
retires the senders of ``T'``.  Each iteration contributes exactly one slot to
the final schedule, so the schedule length equals the number of iterations:
``O(log n)`` with arbitrary power and ``O(Upsilon log n)`` with mean power
(Theorems 4, 12, 16, 21).

The expensive part is the *construction time* (repeated ``Init`` invocations);
it is tracked separately from the quality of the final schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..exceptions import InfeasiblePowerError, ProtocolError
from ..geometry import Node
from ..links import Link, LinkSet
from ..sinr import ExplicitPower, MeanPower, PowerAssignment, SINRParameters, UniformPower
from ..state import NetworkState
from .bitree import BiTree
from .distr_cap import DistrCapResult, DistrCapSelector
from .init_tree import InitialTreeBuilder, validate_init_nodes
from .mean_power_selection import MeanPowerSelectionResult, MeanPowerSelector
from .power_solver import solve_power
from .tree_subset import degree_bounded_mask

__all__ = ["TreeViaCapacity", "TreeViaCapacityResult", "IterationRecord", "PowerMode"]

PowerMode = Literal["arbitrary", "mean"]

# SINR headroom applied when solving per-slot power assignments: the minimal
# solution sits exactly on the feasibility boundary, which floating point and
# large dynamic ranges (high-Delta instances) can tip over.
_POWER_MARGIN = 1.05


def _links(nodes: Sequence[Node], children: np.ndarray, parents: np.ndarray) -> list[Link]:
    """The links ``nodes[children[k]] -> nodes[parents[k]]``, in that order."""
    return [Link(nodes[c], nodes[p]) for c, p in zip(children.tolist(), parents.tolist())]


@dataclass(frozen=True)
class IterationRecord:
    """Statistics of one ``TreeViaCapacity`` iteration.

    Attributes:
        index: iteration number (also the schedule slot it fills).
        population: ``|P_i|``, active nodes at the start of the iteration.
        tree_links: ``|T|``, links of the iteration's Init tree.
        candidate_links: ``|T(M)|``.
        selected_links: ``|T'|``.
        init_slots: slots spent by the Init invocation.
        selection_slots: slots spent by the selection step.
        progress_fraction: ``|T'| / |T|`` - the per-iteration ``delta`` of
            Theorem 12.
    """

    index: int
    population: int
    tree_links: int
    candidate_links: int
    selected_links: int
    init_slots: int
    selection_slots: int
    progress_fraction: float


@dataclass
class TreeViaCapacityResult:
    """Outcome of ``TreeViaCapacity``.

    Attributes:
        tree: the final bi-tree; its aggregation schedule has one slot per
            iteration.
        power: powers for the aggregation links (and for the dissemination
            duals, best effort), making every slot feasible.
        power_mode: "arbitrary" or "mean".
        iterations: per-iteration statistics.
        construction_slots: total channel slots spent building the structure
            (all Init invocations plus the selection slot-pairs).
        delta: distance ratio of the instance.
        aggregation_feasible: whether every aggregation slot verifies feasible
            under ``power``.
        dissemination_feasible: whether every dissemination slot (dual links,
            reverse order) verifies feasible under ``power``.
    """

    tree: BiTree
    power: ExplicitPower
    power_mode: PowerMode
    iterations: list[IterationRecord] = field(default_factory=list)
    construction_slots: int = 0
    delta: float = 1.0
    aggregation_feasible: bool = True
    dissemination_feasible: bool = True

    @property
    def schedule_length(self) -> int:
        """Slots of the final aggregation schedule (the headline quantity)."""
        return self.tree.aggregation_schedule.length


class TreeViaCapacity:
    """Builds and schedules a bi-tree matching centralized bounds (Theorem 4).

    Args:
        params: physical-model parameters.
        constants: protocol constants.
        power_mode: "arbitrary" computes per-slot powers with the power-control
            solver after ``Distr-Cap`` selection; "mean" uses the oblivious
            mean-power assignment with sampling selection.
        max_iterations: safety cap on iterations; defaults to
            ``40 * ceil(log2 n) + 40``.
    """

    def __init__(
        self,
        params: SINRParameters,
        constants: AlgorithmConstants = DEFAULT_CONSTANTS,
        *,
        power_mode: PowerMode = "arbitrary",
        max_iterations: int | None = None,
    ):
        if power_mode not in ("arbitrary", "mean"):
            raise ValueError(f"unknown power mode {power_mode!r}")
        self.params = params
        self.constants = constants
        self.power_mode: PowerMode = power_mode
        self.max_iterations = max_iterations
        self._mean_power = MeanPower.for_max_length(params, 1.0)

    def build(self, nodes: Sequence[Node], rng: np.random.Generator) -> TreeViaCapacityResult:
        """Run the full framework on ``nodes``.

        Every iteration's ``Init`` and ``Distr-Cap`` decode from one
        geometry store: the deployment's, then at each iteration a
        :meth:`NetworkState.subset` of the previous one over the shrinking
        population.  One selector serves every iteration.

        Raises:
            ProtocolError: if the population does not shrink to one node
                within the iteration cap, or if two nodes share an id.
            ConfigurationError: if a node has a non-finite coordinate, or
                two nodes share a position.
        """
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

        # One instance-wide mean-power assignment, reused for selection and
        # for verification: mean-power feasibility is not scale-invariant with
        # noise, so the scale the links succeed with must be the scale that is
        # later verified.
        self._mean_power = MeanPower.for_max_length(self.params, max(delta, 1.0))
        builder = InitialTreeBuilder(self.params, self.constants)
        selector: DistrCapSelector | MeanPowerSelector = (
            DistrCapSelector(self.params, self.constants)
            if self.power_mode == "arbitrary"
            else MeanPowerSelector(self.params)
        )
        rho = self.constants.degree_cap_rho
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
            init_result = builder.build(population, rng, state=state, _checked=True)
            # T(M) is read off Init's parent array; only its links (all tree
            # links when it is empty) become Link objects.
            children, parents = init_result.link_positions()
            tree_size = children.size
            in_subset = degree_bounded_mask(children, parents, len(population), rho)
            if in_subset.any():
                children, parents = children[in_subset], parents[in_subset]
            candidates = _links(population, children, parents)

            # Every candidate is a tree link over P_i, so P_i's store (the one
            # its Init just decoded from) holds them all.
            outcome: DistrCapResult | MeanPowerSelectionResult
            if isinstance(selector, DistrCapSelector):
                rounds = init_result.state.parent_round[children].tolist()
                link_rounds = {link.endpoint_ids: r for link, r in zip(candidates, rounds)}
                outcome = selector.select(candidates, rng, link_rounds=link_rounds, state=state)
            else:
                outcome = selector.select(candidates, rng, power=self._mean_power)
            selected, selection_slots = outcome.selected, outcome.slots_used
            if len(selected) == 0:
                # Guarantee progress: fall back to the single shortest tree
                # link, which is trivially feasible on its own.
                tree_links = _links(population, *init_result.link_positions())
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
            # P_{i+1} is a subset of P_i: gather its store from this one and
            # let this one go, so at most two are alive at a time.
            state = state.subset(population)
            construction_slots += init_result.slots_used + selection_slots
            iterations.append(
                IterationRecord(
                    index=iteration,
                    population=len(retired) + len(population),
                    tree_links=tree_size,
                    candidate_links=len(candidates),
                    selected_links=len(selected),
                    init_slots=init_result.slots_used,
                    selection_slots=selection_slots,
                    progress_fraction=len(selected) / max(tree_size, 1),
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

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _enforce_slot_structure(selected: LinkSet) -> LinkSet:
        """Keep at most one link per node (shorter links first)."""
        used: set[int] = set()
        kept: list[Link] = []
        for link in sorted(selected, key=lambda l: (l.length, l.endpoint_ids)):
            if link.sender.id in used or link.receiver.id in used:
                continue
            kept.append(link)
            used.update(link.endpoint_ids)
        return LinkSet(kept)

    def _power_for_slot(self, selected: LinkSet) -> tuple[LinkSet, PowerAssignment]:
        """Power assignment making the iteration's slot feasible.

        With arbitrary power the selected set can occasionally (under the
        practical constants) fail the exact power-control test; in that case
        the longest links are dropped until a solvable set remains, and the
        pruned set is returned so the caller only commits links it can power.
        """
        links = list(selected)
        if self.power_mode == "mean":
            return selected, self._mean_power
        working = list(links)
        while True:
            try:
                return LinkSet(working), solve_power(working, self.params, margin=_POWER_MARGIN)
            except InfeasiblePowerError:
                if len(working) <= 1:
                    # A single link is always feasible at its noise-safe power.
                    only = working[0]
                    level = (
                        self.params.min_power_for(only.length)
                        if self.params.noise > 0
                        else only.length**self.params.alpha
                    )
                    return LinkSet(working), ExplicitPower({only.endpoint_ids: level})
                # Practical-constants fallback: drop the longest link and retry.
                working.sort(key=lambda l: (l.length, l.endpoint_ids))
                working.pop()

    def _finalize_power(
        self, tree: BiTree, power_map: dict[tuple[int, int], float], delta: float
    ) -> ExplicitPower:
        """Attach best-effort powers for the dissemination (dual) direction."""
        full_map = dict(power_map)
        for slot, group in tree.dissemination_schedule.slot_groups().items():
            duals = [link for link in group if link.endpoint_ids not in full_map]
            if not duals:
                continue
            if self.power_mode == "mean":
                for link in duals:
                    full_map[link.endpoint_ids] = self._mean_power.power(link)
                continue
            try:
                solved = solve_power(duals, self.params, margin=_POWER_MARGIN)
                for link in duals:
                    full_map[link.endpoint_ids] = solved.power(link)
            except InfeasiblePowerError:
                for link in duals:
                    full_map[link.endpoint_ids] = self.params.min_power_for(link.length) if self.params.noise > 0 else link.length**self.params.alpha
        fallback = UniformPower.for_max_length(self.params, max(delta, 1.0))
        return ExplicitPower(full_map, fallback=fallback)

    def _verify(self, tree: BiTree, power: ExplicitPower) -> tuple[bool, bool]:
        aggregation_ok = tree.aggregation_schedule.is_feasible(power, self.params)
        dissemination_ok = tree.dissemination_schedule.is_feasible(power, self.params)
        return aggregation_ok, dissemination_ok
