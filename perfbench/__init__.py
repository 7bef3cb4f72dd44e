"""perfbench — the repo's performance benchmark.

Five named workloads, end-to-end and per-layer metrics, one command;
``BENCHMARK.json`` at the repository root is the schema (workloads,
metric names, units, directions, regression bounds).  See
``perfbench/README.md`` for what each workload exercises and how to read
the numbers.

Nothing here is imported by ``repro``; the benchmark drives the public
client API from outside and must keep working while ``src/`` is
refactored.
"""
