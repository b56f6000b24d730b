"""E12 - Churn: repair cost scales with damage, not network size.

The repair protocol re-runs ``Init`` among the orphaned subtree roots only,
so its slot cost should track the damage size ``k`` (roughly
``O(log Delta * log k)``) and stay below rebuilding from scratch on average:
a patch's sweep costs no more than a rebuild's, but a small patch can need
more sweeps, so some rows cost more.  This experiment kills ``k`` random
non-root nodes for growing ``k``, repairs, and compares ``slots(repair)``
against ``slots(rebuild)`` (summarised by their mean ratio); a sustained-churn run
through the :class:`~repro.dynamics.simulator.DynamicSimulator` with a
seeded :class:`~repro.dynamics.churn.ChurnProcess` (failures *and*
arrivals) accumulates the same accounting across epochs.
"""

from __future__ import annotations

import numpy as np

from ..core import InitialTreeBuilder, TreeRepairer
from ..dynamics import ChurnProcess, DynamicScenario, DynamicSimulator
from .config import ExperimentConfig
from .runner import ExperimentResult, average_rows, make_deployment, run_sweep

__all__ = ["run", "DAMAGE_SIZES", "CHURN_EPOCHS"]

#: Failure-set sizes swept (capped below at n // 3 per trial).
DAMAGE_SIZES = (1, 2, 4, 8)
#: Epochs of the sustained-churn run.
CHURN_EPOCHS = 6


def _trial(args: tuple[ExperimentConfig, int, int]) -> tuple[list[dict], dict]:
    """One (n, seed) trial: single-shot rows per damage size + a churn run."""
    config, n, seed = args
    params = config.params
    nodes = make_deployment(config, n, seed)
    rng = np.random.default_rng(12_000 + seed)
    builder = InitialTreeBuilder(params, config.constants)
    outcome = builder.build(nodes, rng)
    repairer = TreeRepairer(params, config.constants)

    rows: list[dict] = []
    victims_pool = [node_id for node_id in outcome.tree.nodes if node_id != outcome.tree.root_id]
    for k in DAMAGE_SIZES:
        if k > max(1, n // 3):
            continue
        failed = [int(v) for v in rng.choice(victims_pool, size=k, replace=False)]
        repair = repairer.repair(outcome.tree, outcome.power, failed, rng)
        assert repair.tree.is_strongly_connected()
        rows.append(
            {
                "n": n,
                "seed": seed,
                "k": k,
                "reattached": len(repair.reattached),
                "repair_slots": repair.slots_used,
                "rebuild_slots": outcome.slots_used,
                "repair_over_rebuild": round(
                    repair.slots_used / max(outcome.slots_used, 1), 3
                ),
            }
        )

    churn = ChurnProcess(failure_prob=0.06, arrival_rate=0.5, seed=300 + seed)
    scenario = DynamicScenario(churn=churn, epochs=CHURN_EPOCHS)
    dynamic = DynamicSimulator(
        list(nodes), params, scenario, config.constants, seed=13_000 + seed
    ).run()
    sustained = {
        "n": n,
        "seed": seed,
        "epochs": CHURN_EPOCHS,
        "total_repair_slots": dynamic.total_repair_slots,
        "initial_slots": dynamic.initial_slots,
        "always_connected": all(r.strongly_connected for r in dynamic.records),
        "final_n": dynamic.records[-1].n_nodes if dynamic.records else n,
    }
    return rows, sustained


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Measure repair slot cost against damage size and sustained churn."""
    config = config or ExperimentConfig()
    result = ExperimentResult(
        experiment_id="E12",
        title="Churn: incremental repair cost tracks the damage, not the network (mean repair < rebuild)",
    )
    outcomes = run_sweep(_trial, config)
    result.rows = [row for rows, _ in outcomes for row in rows]
    sustained = [entry for _, entry in outcomes]

    by_k = average_rows(result.rows, "k", ["repair_slots", "repair_over_rebuild"])
    result.summary = {
        "mean_repair_slots_by_k": {
            entry["k"]: round(entry["repair_slots"], 1) for entry in by_k
        },
        "mean_repair_over_rebuild": round(
            float(np.mean([row["repair_over_rebuild"] for row in result.rows])), 3
        ),
        "sustained_always_connected": all(entry["always_connected"] for entry in sustained),
        "mean_sustained_repair_slots_per_epoch": round(
            float(
                np.mean([entry["total_repair_slots"] / entry["epochs"] for entry in sustained])
            ),
            1,
        ),
    }
    return result
