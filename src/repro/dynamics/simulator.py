"""Epoch-driven driver for dynamic-network scenarios.

The :class:`DynamicSimulator` runs the paper's machinery through *changing*
conditions: every epoch it (1) moves nodes according to the scenario's
mobility model, (2) applies the scenario's churn event through
:meth:`repro.core.repair.TreeRepairer.integrate`, so the Init-tree and its
schedule are incrementally repaired mid-run, and (3) measures the health of
the structure: the fraction of schedule slot groups still SINR-feasible at
the current positions, the fraction of tree links a physical channel replay
actually delivers (under the scenario's gain model, with per-slot fading),
and strong connectivity.

All geometry flows through one :class:`~repro.state.NetworkState` that
lives for the whole run: mobility patches the moved rows, churn splices are
applied to the same store by ``integrate`` (failures release slots,
arrivals patch only their own rows) and the channel's cache merely re-slots
its view - every epoch costs O(damage), never an O(n^2) matrix rebuild.
The per-epoch patch cost is reported in
:attr:`EpochRecord.patch_cells` (matrix cells rewritten; a rebuild would
cost ``capacity**2`` per materialized matrix).

Everything is reproducible from the driver's seed: the build/repair
randomness flows from one generator, gain-model fades are pure functions of
their own seeds, and churn events are pure functions of ``(seed, epoch)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..core import BiTree, InitialTreeBuilder, Schedule, TreeRepairer
from ..exceptions import ConfigurationError
from ..geometry import Node
from ..obs.runtime import OBS
from ..obs.spans import begin_span, end_span, span
from ..sinr import CachedChannel, ExplicitPower, LinkArrayCache, SINRParameters, is_feasible
from ..sinr.power import PowerAssignment
from ..state import DecodeWorkspace, NetworkState
from .churn import ChurnProcess
from .gain import GainModel
from .mobility import MobilityModel

__all__ = [
    "DynamicScenario",
    "EpochRecord",
    "DynamicRunResult",
    "DynamicSimulator",
    "replay_schedule",
]

# Domain-separation tag for the driver RNG stream.
_DYNAMICS_STREAM = 0x44594E53


@dataclass(frozen=True)
class DynamicScenario:
    """What changes while a dynamic run unfolds.

    Attributes:
        mobility: node movement per epoch (``None`` = static positions).
        churn: failure/arrival stream (``None`` = fixed node set).
        gain_model: channel-gain model used for *evaluating* the structure
            (feasibility and replay).  Construction and repair always run
            under the deterministic model, mirroring a planner that cannot
            observe fades in advance.
        epochs: number of epochs to simulate.
    """

    mobility: MobilityModel | None = None
    churn: ChurnProcess | None = None
    gain_model: GainModel | None = None
    epochs: int = 10

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be non-negative, got {self.epochs}")


@dataclass(frozen=True)
class EpochRecord:
    """Health and cost measurements for one epoch.

    ``patch_cells`` counts the derived-matrix cells the shared
    :class:`~repro.state.NetworkState` rewrote for this epoch's moves and
    churn - the O(damage) cost that replaced the former per-event O(n^2)
    cache rebuild.
    """

    epoch: int
    n_nodes: int
    moved: int
    failed: tuple[int, ...]
    arrived: tuple[int, ...]
    repair_slots: int
    root_changed: bool
    feasible_fraction: float
    link_success_rate: float
    strongly_connected: bool
    patch_cells: int = 0


@dataclass
class DynamicRunResult:
    """Outcome of a full dynamic run.

    Attributes:
        initial_slots: channel slots spent building the initial tree.
        records: one :class:`EpochRecord` per simulated epoch.
        tree: the final bi-tree.
        power: the final per-link power assignment.
    """

    initial_slots: int
    records: list[EpochRecord] = field(default_factory=list)
    tree: BiTree | None = None
    power: ExplicitPower | None = None

    @property
    def total_repair_slots(self) -> int:
        """Channel slots spent on repairs across all epochs."""
        return sum(record.repair_slots for record in self.records)

    def half_life(self, threshold: float = 0.5) -> int | None:
        """First epoch whose feasible fraction dropped below ``threshold``.

        Returns ``None`` when the structure outlived the run - the scenario's
        connectivity half-life exceeds the simulated horizon.
        """
        for record in self.records:
            if record.feasible_fraction < threshold:
                return record.epoch
        return None


def replay_schedule(
    schedule: Schedule,
    power: PowerAssignment,
    channel: CachedChannel,
    *,
    start_slot: int = 0,
    groups: list[list] | None = None,
) -> tuple[int, int, int]:
    """Replay a schedule's slot groups through the physical channel.

    Every used slot of ``schedule`` becomes one physical slot: the group's
    senders transmit with their recorded powers and each link succeeds when
    its receiver actually decodes *its own sender* (not merely anyone) -
    under the channel's gain model, at slot index ``start_slot + group
    position`` so slot-dependent fading (Rayleigh) draws fresh fades per
    group.  Receivers that are themselves transmitting in the group fail by
    half-duplex.

    Args:
        schedule: the schedule whose slot groups are replayed.
        power: per-link powers.
        channel: cached channel whose node universe covers the links.
        start_slot: physical slot index of the first group.
        groups: the schedule's slot groups in slot order, when the caller
            already extracted them (avoids a second pass over the schedule).

    Returns:
        ``(successes, links, slots)``: delivered links, total links, and
        physical slots consumed.
    """
    cache = channel.cache
    if groups is None:
        groups = [group for _, group in sorted(schedule.slot_groups().items())]
    successes = 0
    total = 0
    slots = 0
    # One scratch arena for the whole replay: each group's decode reuses the
    # same buffers (results are consumed before the next group decodes).
    workspace = DecodeWorkspace()
    for group_index, links in enumerate(groups):
        tx_idx = np.array([cache.index_of_id(l.sender.id) for l in links], dtype=np.intp)
        powers = np.array([power.power(l) for l in links], dtype=float)
        tx_id_set = {l.sender.id for l in links}
        # Half-duplex: links whose receiver is also transmitting cannot decode.
        live = [k for k, l in enumerate(links) if l.receiver.id not in tx_id_set]
        total += len(links)
        slots += 1
        if not live:
            continue
        rx_idx = np.array(
            [cache.index_of_id(links[k].receiver.id) for k in live], dtype=np.intp
        )
        best, _, ok = channel.resolve_indices(
            tx_idx, rx_idx, powers, slot=start_slot + group_index, workspace=workspace
        )
        for j, k in enumerate(live):
            if ok[j] and int(best[j]) == k:
                successes += 1
    return successes, total, slots


class DynamicSimulator:
    """Runs a :class:`DynamicScenario` over an initial deployment.

    Args:
        nodes: initial deployment.
        params: physical-model parameters (construction/repair always use the
            deterministic gain; the scenario's ``gain_model`` is applied for
            evaluation only).
        scenario: the dynamics to apply.
        constants: protocol constants for ``Init`` and its repairs.
        seed: master seed of the run.
        state: an existing :class:`~repro.state.NetworkState` containing
            every node of ``nodes``; the run's channel caches then view it
            (and churn splices are applied to it), so the caller can share
            one geometry store with its own channels and inspect the patch
            cost afterwards.  A private state is created when omitted.
    """

    def __init__(
        self,
        nodes: list[Node],
        params: SINRParameters,
        scenario: DynamicScenario,
        constants: AlgorithmConstants = DEFAULT_CONSTANTS,
        seed: int = 0,
        *,
        state: NetworkState | None = None,
    ):
        self.nodes = list(nodes)
        self.state = state
        # Construction/repair always run deterministic; evaluation honors the
        # scenario's gain model, falling back to one already set on the
        # caller's parameters (the way every other API accepts it).
        self.params = params.with_overrides(gain_model=None)
        eval_model = (
            scenario.gain_model if scenario.gain_model is not None else params.gain_model
        )
        self.eval_params = (
            params.with_overrides(gain_model=eval_model)
            if eval_model is not None
            else self.params
        )
        self.scenario = scenario
        self.constants = constants
        self.seed = seed

    def run(self) -> DynamicRunResult:
        """Simulate the scenario and return per-epoch records."""
        rng = np.random.default_rng([_DYNAMICS_STREAM, self.seed])
        builder = InitialTreeBuilder(self.params, self.constants)
        with span("dynamics.build", n=len(self.nodes)):
            outcome = builder.build(self.nodes, rng)
        tree, power = outcome.tree, outcome.power
        repairer = TreeRepairer(self.params, self.constants)
        # One geometry store for the whole run: mobility patches rows, churn
        # splices release/assign slots, and the channel's cache is a view of
        # it re-anchored to the tree's node order - no per-event rebuilds.
        node_list = list(tree.nodes.values())
        state = self.state if self.state is not None else NetworkState.for_nodes(node_list)
        channel = CachedChannel(self.eval_params, node_list, state=state)
        mobility, churn = self.scenario.mobility, self.scenario.churn
        if mobility is not None:
            mobility.begin_run(channel.cache.xy, rng, channel.cache.ids)
        next_id = max(tree.nodes) + 1
        global_slot = outcome.slots_used
        result = DynamicRunResult(initial_slots=outcome.slots_used)
        cells_before = state.cells_patched

        for epoch in range(self.scenario.epochs):
            epoch_span = begin_span("dynamics.epoch", epoch=epoch)
            moved = 0
            if mobility is not None:
                indices, new_xy = mobility.move(channel.cache.xy, rng)
                if indices.size:
                    channel.cache.update_positions(indices, new_xy)
                    moved = int(indices.size)
                    # Refresh the tree's node objects to the new positions;
                    # parent pointers and slot stamps are unchanged.
                    tree = BiTree.from_parent_map(
                        list(channel.cache.nodes),
                        tree.root_id,
                        tree.parent,
                        tree.slot_stamps(),
                    )

            failed: tuple[int, ...] = ()
            arrived: tuple[int, ...] = ()
            repair_slots = 0
            root_changed = False
            if churn is not None:
                event = churn.events_for(
                    epoch, list(tree.nodes.values()), next_id, xy=channel.cache.xy
                )
                if not event.is_empty:
                    repair = repairer.integrate(
                        tree,
                        power,
                        failed_ids=event.failed,
                        arrivals=event.arrivals,
                        rng=rng,
                        state=state,
                    )
                    tree, power = repair.tree, repair.power
                    failed = tuple(sorted(repair.failed))
                    arrived = tuple(sorted(repair.arrived))
                    repair_slots = repair.slots_used
                    root_changed = repair.root_changed
                    global_slot += repair.slots_used
                    next_id = max(next_id, max(tree.nodes) + 1)
                    # The state already absorbed the splice at O(damage);
                    # re-anchor the channel's view to the repaired tree's
                    # node order and the per-node mobility state to the new
                    # indexing (id-keyed state survives; only arrivals start
                    # fresh).
                    channel.cache.sync(tree.nodes.values())
                    if mobility is not None:
                        mobility.reset(channel.cache.xy, rng, channel.cache.ids)

            schedule = tree.aggregation_schedule
            groups = [group for _, group in sorted(schedule.slot_groups().items())]
            if groups:
                # Per-group link caches view the run's shared state, so the
                # feasibility checks gather from the one distance store the
                # replay materialized instead of recomputing coordinates.
                feasible = sum(
                    1
                    for group in groups
                    if is_feasible(
                        LinkArrayCache(group, state=state), power, self.eval_params
                    )
                )
                feasible_fraction = feasible / len(groups)
            else:
                feasible_fraction = 1.0
            successes, total, slots = replay_schedule(
                schedule, power, channel, start_slot=global_slot, groups=groups
            )
            global_slot += slots
            result.records.append(
                EpochRecord(
                    epoch=epoch,
                    n_nodes=tree.size,
                    moved=moved,
                    failed=failed,
                    arrived=arrived,
                    repair_slots=repair_slots,
                    root_changed=root_changed,
                    feasible_fraction=feasible_fraction,
                    link_success_rate=successes / total if total else 1.0,
                    strongly_connected=tree.is_strongly_connected(),
                    patch_cells=state.cells_patched - cells_before,
                )
            )
            cells_before = state.cells_patched
            if OBS.enabled:
                registry = OBS.registry
                registry.inc("dynamics.epochs")
                if moved:
                    registry.inc("dynamics.moved", moved)
                if failed:
                    registry.inc("dynamics.failed", len(failed))
                if arrived:
                    registry.inc("dynamics.arrived", len(arrived))
                if repair_slots:
                    registry.inc("dynamics.repair_slots", repair_slots)
            end_span(epoch_span)

        result.tree = tree
        result.power = power
        return result
