"""The repository's service benchmark (see ``perfbench/README.md``).

Run one workload with ``python3 perfbench/run.py --workload NAME``
from the repository root; the last line of standard output is the JSON
result object.
"""
