"""The qbench benchmark: closed-loop CLI workloads with a traced per-module breakdown.

Run ``python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; ``--help`` lists the workloads.
"""
