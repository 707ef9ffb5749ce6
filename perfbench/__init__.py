"""The repository's benchmark; run ``python3 perfbench/run.py --help``."""
