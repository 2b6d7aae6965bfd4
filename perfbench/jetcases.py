"""Jet micro-cases: ``Jet.__mul__`` and ``compose_series`` in isolation.

Each case runs on fixed inputs drawn from the run's seed and checks the
result once against a dictionary convolution over the monomials, which shares
no code with the product table.  The timing is the median over batches of the
per-call time, in microseconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# (num_vars, order): the curve jets (1, 7), the chart signatures of the
# catalog (2, 7), (3, 7), (4, 6), and (8, 3), the many-variable low-order
# shape of the pointwise workload.
SIGNATURES = ((1, 7), (2, 7), (3, 7), (4, 6), (8, 3))
BATCHES = 9
BATCH_SECONDS = 0.02   # minimum length of one timed batch


def _reference_mul(sig, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    for i, mi in enumerate(sig.monomials):
        for j, mj in enumerate(sig.monomials):
            m = tuple(p + q for p, q in zip(mi, mj))
            if sum(m) <= sig.order:
                out[sig.index[m]] += a[i] * b[j]
    return out


def _reference_compose(sig, a: np.ndarray, outer: np.ndarray) -> np.ndarray:
    tilde = a.copy()
    tilde[0] = 0.0
    power = np.zeros_like(a)
    power[0] = 1.0
    out = outer[0] * power
    for j in range(1, sig.order + 1):
        power = _reference_mul(sig, power, tilde)
        out = out + outer[j] * power
    return out


def _per_call_us(fn) -> float:
    """Median per-call time over batches of at least BATCH_SECONDS."""
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - start >= BATCH_SECONDS:
            break
        reps *= 2
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps * 1e6)
    return statistics.median(samples)


def run_jet_cases(seed: int) -> tuple[dict[str, float], list[str]]:
    """Per-call microseconds by metric name, plus any wrong results."""
    from oscflag.jets import Jet, compose_series, signature

    rng = np.random.default_rng([seed, 1105])
    metrics: dict[str, float] = {}
    errors: list[str] = []
    for num_vars, order in SIGNATURES:
        sig = signature(num_vars, order)
        a = Jet(num_vars, order, rng.uniform(-1.0, 1.0, sig.size))
        b = Jet(num_vars, order, rng.uniform(-1.0, 1.0, sig.size))
        outer = rng.uniform(-1.0, 1.0, order + 1)
        tag = f"{num_vars}x{order}"
        cases = (
            ("mul", lambda: a * b,
             _reference_mul(sig, a.coeffs, b.coeffs)),
            ("compose", lambda: compose_series(a, outer),
             _reference_compose(sig, a.coeffs, outer)),
        )
        for op, fn, want in cases:
            got = fn().coeffs
            if not np.allclose(got, want, rtol=1e-12, atol=1e-12):
                errors.append(f"jets.{op} at {tag}: max deviation "
                              f"{float(np.max(np.abs(got - want))):.3e}")
            metrics[f"jets.{op}_us.{tag}"] = _per_call_us(fn)
    return metrics, errors
