"""Pure-vs-compiled kernel parity, run when the compiled twin imports.

The inputs are those of benchmarks/bench_kernels.py: each of its
`workload_*(rng)` builds one kernel's inputs and returns a `run(module)`
whose outputs must be identical for both backends.
"""

import importlib.util
import os
import random

from subwordkit import _kernels_py


def mismatches(compiled, root=".", seed=0):
    """Names of the kernels whose outputs differ between the two backends."""
    path = os.path.join(root, "benchmarks", "bench_kernels.py")
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench_kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_kernels)
    bad = []
    for attr in sorted(vars(bench_kernels)):
        if attr.startswith("workload_"):
            name, _, run = getattr(bench_kernels, attr)(random.Random(seed))
            if run(_kernels_py) != run(compiled):
                bad.append(name)
    return bad
