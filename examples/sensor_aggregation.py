"""Sensor-network data aggregation with an efficient bi-tree.

The motivating scenario from the paper's introduction: a wireless sensor
network needs an information-aggregation backbone.  This example builds the
high-quality structure of Theorem 4 (``TreeViaCapacity`` with power control),
whose schedule has only O(log n) slots, and then uses it to aggregate sensor
readings (here: a maximum over simulated temperature readings) and to
broadcast an alarm back to every sensor.

Run with:  python examples/sensor_aggregation.py
"""

from __future__ import annotations

import numpy as np

from repro import ConnectivityProtocol, SINRParameters
from repro.analysis import simulate_broadcast, simulate_convergecast
from repro.geometry import clustered


def main() -> None:
    rng = np.random.default_rng(11)
    params = SINRParameters(alpha=3.0, beta=1.5, noise=1.0)
    protocol = ConnectivityProtocol(params)

    # Sensors are deployed in clusters (buildings of a campus, say).
    sensors = clustered(72, rng, clusters=4)
    print(f"Deployed {len(sensors)} sensors in 4 clusters.")

    print("Building the efficient aggregation bi-tree (TreeViaCapacity, power control) ...")
    outcome = protocol.build_efficient_tree(sensors, rng, power_mode="arbitrary")
    print(f"  schedule length: {outcome.schedule_length} slots "
          f"(vs {len(sensors) - 1} slots for naive TDMA)")
    print(f"  construction cost: {outcome.construction_slots} channel slots, "
          f"{len(outcome.iterations)} iterations")
    print(f"  aggregation slots feasible: {outcome.aggregation_feasible}, "
          f"dissemination slots feasible: {outcome.dissemination_feasible}")

    # Simulated temperature readings; the sink wants the maximum.
    readings = {node.id: float(rng.normal(22.0, 3.0)) for node in sensors}
    hottest = max(readings.values())
    print(f"Aggregating max temperature over the tree (true max = {hottest:.2f} C) ...")
    up = simulate_convergecast(
        outcome.tree, outcome.power, params, values=readings, combine=max
    )
    print(f"  sink (node {outcome.tree.root_id}) received {up.root_value:.2f} C "
          f"in {up.slots} slots; correct: {up.correct}")

    print("Broadcasting an alarm from the sink to every sensor ...")
    down = simulate_broadcast(outcome.tree, outcome.power, params)
    print(f"  reached {down.reached}/{down.total} sensors in {down.slots} slots")

    per_iteration = [record.selected_links for record in outcome.iterations]
    print(f"Per-iteration links committed to the schedule: {per_iteration}")


if __name__ == "__main__":
    main()
