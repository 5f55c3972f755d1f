"""Seeded parameter initializers.

Every initializer takes an explicit ``np.random.Generator`` — obtained
from a named ``repro.utils.rng`` stream — so a model's weights are a
pure function of its init stream and construction order (DESIGN.md §7).
Layers derive a default stream from their own geometry when the caller
does not thread one through; models that instantiate the same layer
shape twice (e.g. the two Fig. 7 residual blocks) pass one shared
generator so consecutive draws break the symmetry.
"""

from __future__ import annotations

import math

import numpy as np


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)


def uniform(
    shape: tuple[int, ...], rng: np.random.Generator, low: float = -0.05, high: float = 0.05
) -> np.ndarray:
    return rng.uniform(low, high, size=shape).astype(np.float32)


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He bound ``sqrt(6 / fan_in)`` — the ReLU-stack default."""
    fan_in, _ = _fans(shape)
    limit = math.sqrt(6.0 / fan_in)
    return uniform(shape, rng, -limit, limit)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    return shape[-2], shape[-1]


__all__ = ["kaiming_uniform", "ones", "uniform", "zeros"]
