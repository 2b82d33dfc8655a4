"""
Name of the kernel implementation, for benchmark records.

The kernels themselves are in `core_la`. `perfbench/worker.py` reads
`get_backend()` into the environment record of each benchmark result;
this module goes together with that field (ROADMAP item 10).
"""


def get_backend():
    """Name of the kernel implementation: always "numpy"."""
    return "numpy"
