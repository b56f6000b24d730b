"""Time one cold set-up: import the program, generate a workload's deployments.

``run.py`` starts this script in a fresh interpreter several times and reports
the median as ``setup_s``.  Prints one JSON line: the set-up's reference and
wall seconds (see ``speed.py``) and the deployments' digest, which the caller
compares with its own.

Usage: python3 perfbench/setup_probe.py <workload> <n> <seed>
"""

import json
import sys
from pathlib import Path

import speed


def main() -> None:
    with speed.SpeedMeter() as meter:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        import workloads

        workload = workloads.WORKLOADS[sys.argv[1]]
        deployments = workload.deploy(int(sys.argv[3]), int(sys.argv[2]))
    print(
        json.dumps(
            {
                "setup_s": meter.reference_s,
                "setup_wall_s": meter.wall_s,
                "digest": workloads.deployment_digest(deployments),
            }
        )
    )


if __name__ == "__main__":
    main()
