"""Numerically safe sigmoid and the seeded random source.

The random source is numpy's PCG64 generator, which is bit-reproducible for a
given seed across platforms; every seed used anywhere in the package flows
through `new_rng`.
"""

from __future__ import annotations

import numpy as np


def new_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 generator for the given 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed))


def sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function; into `out` when given, which may be `v` itself."""
    # exp(min(v, 0)) is e^v below zero and 1 above it; exp(-|v|) never
    # overflows, and the ratio is e^v / (1 + e^v) for v < 0
    den = np.copysign(v, -1.0)
    np.exp(den, den)
    den += 1.0
    out = np.minimum(v, 0.0, out=out)
    np.exp(out, out)
    out /= den
    return out
