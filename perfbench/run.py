#!/usr/bin/env python3
"""Benchmark entry point: pins thread counts, then runs the harness.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Thread counts must be fixed before numpy loads its BLAS, so this file
sets them and only then imports the harness. See perfbench/README.md.
"""

import os
import sys

# One replicate thread and one BLAS thread: BLAS oversubscription on a
# busy core slows a matmul by far more than any program change moves it.
PINNED_THREADS = {
    "CCC_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

if __name__ == "__main__":
    os.environ.update(PINNED_THREADS)
    # Set-up times include compiling ccc from source on every run: no
    # bytecode cache is read (the prefix directory is never created) or
    # written, whatever an earlier run or the environment left behind.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                      os.pardir, ".perfbench-out", "no-bytecode")
    import harness

    sys.exit(harness.main(sys.argv[1:]))
