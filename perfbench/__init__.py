"""Outside-in benchmark of weyl-lab; run it with `python3 perfbench/run.py`."""
