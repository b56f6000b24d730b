"""E13 - Loss resilience: ``Init`` over a faulty transport, and its price.

The paper's protocols assume a perfect stack below the SINR channel.  This
experiment runs the same ``Init`` program over the netsim message runtime at
increasing message-loss rates and measures the overhead against the lockstep
oracle: extra slots (the protocol's redundancy re-absorbs every dropped
acknowledgment), extra transmissions (the send budget), and - in the crash
cell - the slots the completion patch spends re-attaching subtrees orphaned
by nodes dying mid-protocol.  The zero-loss cell doubles as an in-sweep
parity assertion: it must cost *exactly* the oracle's slots.

The resilience floor pinned by CI's chaos job lives here too: at 10% loss
with two mid-run crashes, reliable delivery must still converge to a
spanning tree of the survivors on every seed.
"""

from __future__ import annotations

import numpy as np

from ..core import InitialTreeBuilder
from ..netsim import CrashSchedule, FaultPlan, NetInitBuilder
from .config import ExperimentConfig
from .runner import ExperimentResult, average_rows, make_deployment, run_sweep

__all__ = ["run", "LOSS_RATES", "CRASH_CELL"]

#: Per-message drop probabilities swept.
LOSS_RATES = (0.0, 0.05, 0.10, 0.20)
#: The chaos cell: (drop probability, number of mid-run crashes).
CRASH_CELL = (0.10, 2)


def _trial(args: tuple[ExperimentConfig, int, int]) -> tuple[list[dict], dict]:
    """One (n, seed) trial: a loss sweep plus the loss-and-crashes cell."""
    config, n, seed = args
    params = config.params
    nodes = make_deployment(config, n, seed)
    ids = [node.id for node in nodes]

    oracle = InitialTreeBuilder(params, config.constants).build(
        nodes, np.random.default_rng(13_000 + seed)
    )

    rows: list[dict] = []
    for loss in LOSS_RATES:
        plan = FaultPlan(seed=13_100 + seed, drop_prob=loss)
        outcome = NetInitBuilder(
            params, config.constants, plan=plan, delivery="reliable"
        ).build(nodes, np.random.default_rng(13_000 + seed))
        outcome.tree.validate()
        assert set(outcome.tree.nodes) == set(ids)
        if loss == 0.0:
            # In-sweep parity pin: a faultless netsim run costs exactly the
            # lockstep oracle and reconstructs the identical tree.
            assert outcome.slots_used == oracle.slots_used
            assert outcome.tree.parent == oracle.tree.parent
        rows.append(
            {
                "n": n,
                "seed": seed,
                "loss": loss,
                "slots": outcome.slots_used,
                "oracle_slots": oracle.slots_used,
                "round_overhead": round(
                    outcome.slots_used / max(oracle.slots_used, 1), 3
                ),
                "transmissions": sum(outcome.send_budget.values()),
                "dropped": outcome.fault_summary.get("dropped", 0),
                "repaired": outcome.completed_by_repair,
            }
        )

    # The chaos cell: double-digit loss plus nodes dying mid-protocol.
    crash_loss, crash_count = CRASH_CELL
    crashes = CrashSchedule.sample(
        ids,
        crash_count,
        horizon=max(oracle.slots_used, 24),
        seed=13_200 + seed,
        min_slot=4,
    )
    plan = FaultPlan(seed=13_100 + seed, drop_prob=crash_loss, crashes=crashes)
    survived = NetInitBuilder(
        params, config.constants, plan=plan, delivery="reliable"
    ).build(nodes, np.random.default_rng(13_000 + seed))
    survived.tree.validate()
    alive = set(ids) - set(survived.crashed)
    crash_row = {
        "n": n,
        "seed": seed,
        "loss": crash_loss,
        "crashes": len(survived.crashed),
        "spans_survivors": set(survived.tree.nodes) == alive,
        "slots": survived.slots_used,
        "completion_slots": survived.completion_slots,
        "reattached": len(survived.reattached),
        "round_overhead": round(survived.slots_used / max(oracle.slots_used, 1), 3),
    }
    return rows, crash_row


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Measure Init's round/send overhead under message loss and crashes."""
    config = config or ExperimentConfig()
    result = ExperimentResult(
        experiment_id="E13",
        title="Loss resilience: Init over a faulty transport converges, overhead tracks the loss rate",
    )
    outcomes = run_sweep(_trial, config)
    result.rows = [row for rows, _ in outcomes for row in rows]
    crash_rows = [crash for _, crash in outcomes]

    by_loss = average_rows(result.rows, "loss", ["round_overhead", "transmissions"])
    result.summary = {
        "mean_round_overhead_by_loss": {
            entry["loss"]: round(entry["round_overhead"], 3) for entry in by_loss
        },
        "zero_loss_is_oracle_exact": all(
            row["round_overhead"] == 1.0 for row in result.rows if row["loss"] == 0.0
        ),
        "resilience_floor_converged": all(row["spans_survivors"] for row in crash_rows),
        "mean_crash_cell_overhead": round(
            float(np.mean([row["round_overhead"] for row in crash_rows])), 3
        ),
        "mean_completion_slots": round(
            float(np.mean([row["completion_slots"] for row in crash_rows])), 1
        ),
    }
    result.rows.extend(crash_rows)
    return result
