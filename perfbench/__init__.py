"""Two-clock benchmark of the repro LP stack (``python3 perfbench/run.py``)."""
