"""Layer probes: the rows of ROADMAP's baseline table, timed directly.

Every probe runs on SYS-B with the tracer uninstalled.  Each repeats its call
until a batch takes at least ``BATCH_S`` CPU seconds, and reports the median
per-call time over ``BATCHES`` batches.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

BATCH_S = 0.05
BATCHES = 5


def _per_call(fn) -> float:
    """Median CPU seconds per call of ``fn`` over BATCHES batches."""
    fn()  # warm lazy caches (interpolants, imports)
    reps = 1
    while True:
        t0 = time.process_time()
        for _ in range(reps):
            fn()
        dt = time.process_time() - t0
        if dt >= BATCH_S:
            break
        reps *= 4
    times = [dt / reps]
    for _ in range(BATCHES - 1):
        t0 = time.process_time()
        for _ in range(reps):
            fn()
        times.append((time.process_time() - t0) / reps)
    return statistics.median(times)


def run_probes(tiny: bool = False) -> dict:
    """{metric name: (value, unit)}; ``tiny`` shrinks the sampler probe."""
    from gibbsflow.operator import eigendata, transfer_matrix
    from gibbsflow.gibbs import sample_mu
    from gibbsflow.presets import make_preset
    from gibbsflow.system import branch_chain, cylinders

    sysb = make_preset("SYS-B")
    one = np.array([0.3])
    wide = np.linspace(0.0, 1.0, 4096)
    word = (0, 1) * 5
    eig = eigendata(sysb, 0.0, N=1024)
    eig256 = eigendata(sysb, 0.0, N=256)
    samples = 1000 if tiny else 10_000
    us, ms = 1e6, 1e3
    return {
        "probe.inverse_branch_1pt": (
            us * _per_call(lambda: sysb.inverse_branch(0, one)), "us"),
        "probe.inverse_branch_4096pt": (
            us * _per_call(lambda: sysb.inverse_branch(0, wide)), "us"),
        "probe.branch_chain_depth10_1pt": (
            us * _per_call(lambda: branch_chain(sysb, word, one)), "us"),
        "probe.roof_expr_1pt": (
            us * _per_call(lambda: sysb._r[0](x=0.3)), "us"),
        "probe.cylinders_depth12": (
            ms * _per_call(lambda: cylinders(sysb, 12)), "ms"),
        "probe.transfer_matrix_1024": (
            ms * _per_call(lambda: transfer_matrix(sysb, 0.0, 1024)), "ms"),
        "probe.eigendata_1024": (
            ms * _per_call(lambda: eigendata(sysb, 0.0, N=1024)), "ms"),
        "probe.f_eval_4096pt": (
            us * _per_call(lambda: eig.f.eval(wide)), "us"),
        "probe.sample_mu_10k": (
            _per_call(lambda: sample_mu(sysb, eig256, samples, seed=0)), "s"),
    }
