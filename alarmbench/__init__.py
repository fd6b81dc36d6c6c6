"""Alarm-pipeline benchmark: producer -> log -> streaming consumer -> sink.

Run ``python3 alarmbench/run.py --help`` from the repository root; see
``alarmbench/README.md`` for the workloads and metrics.
"""
