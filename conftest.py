"""Settings for the whole test session, ``tests/`` and ``specbench/`` alike.

OpenBLAS reads its thread count once, when numpy or scipy first loads it.
Threading the tiny matrices of these tests buys nothing and slows a run
about twofold beside another busy process, so the count defaults to one.
This file is loaded before any test module, and so before numpy.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
