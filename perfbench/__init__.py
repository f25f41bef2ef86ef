"""Repository benchmark for the simulator (see run.py)."""
