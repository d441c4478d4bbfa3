"""Point sampling shared by the test modules.

It lives outside conftest.py so that `from disk_sampling import ...`
resolves to this file when tests/ and perfbench/tests/ (which has its own
conftest.py) are collected in one run.
"""

import numpy as np


def disk_points(rng, count, radius=0.6):
    """Uniform points inside the disk of the given radius."""
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    th = rng.uniform(0.0, 2.0 * np.pi, count)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])
