"""Repository benchmark; run with ``python3 perfbench/run.py``."""
