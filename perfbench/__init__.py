"""End-to-end and per-layer benchmark of the RouteNet reproduction.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
