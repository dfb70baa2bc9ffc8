"""The repository benchmark: ``python3 bench/run.py --workload <name>``."""
