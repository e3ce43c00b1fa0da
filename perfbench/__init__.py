"""Host-cost benchmark of the simulator: sweeps, a served replay, a per-layer trace.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``perfbench/README.md`` describes the workloads
and metrics.
"""
