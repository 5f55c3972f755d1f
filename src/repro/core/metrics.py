"""Top-k "best-found latency ratio" — the paper's Table 6/7 metric.

A cost model is only as good as the candidate the tuner ends up
measuring: the metric takes the model's top-k picks for one task, looks
up their *true* (simhw) latencies, and scores ``best true latency /
best latency among the picks``.  1.0 means the model's top-k contained
the true optimum; lower means the tuner would have settled for a slower
schedule.  Table 6/7 report the mean over held-out-network tasks at
k = 1 and k = 5.

The random baseline is computed *exactly* rather than by sampling:
for a uniformly random size-k subset of n candidates, the probability
that the best pick is the (i+1)-th fastest is ``C(n-1-i, k-1) / C(n, k)``,
so the expected score is a short weighted sum — deterministic, no RNG
stream to thread through evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.losses import group_bounds


def top_k_score(scores: np.ndarray, latencies: np.ndarray, k: int) -> float:
    """Best-found latency ratio of the model's top-k picks for one group.

    ``scores`` are model outputs (higher = predicted faster);
    ``latencies`` the ground-truth cost of the same candidates.  Ties in
    scores break by index (stable argsort), matching how a tuner would
    consume a scored list.
    """
    # Evaluation arithmetic runs in float64 on purpose: these are report
    # numbers compared across runs, not training-path compute (SC103 is
    # about keeping the hot path float32).
    s = np.asarray(scores, dtype=np.float64).reshape(-1)  # selfcheck: allow[SC103]
    lat = np.asarray(latencies, dtype=np.float64).reshape(-1)  # selfcheck: allow[SC103]
    if s.shape != lat.shape:
        raise ValueError(f"scores shape {s.shape} != latencies shape {lat.shape}")
    if s.shape[0] == 0:
        raise ValueError("top_k_score needs at least one candidate")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if np.any(lat <= 0.0):
        raise ValueError("latencies must be positive")
    picks = np.argsort(-s, kind="stable")[:k]
    return float(lat.min() / lat[picks].min())


def random_top_k_score(latencies: np.ndarray, k: int) -> float:
    """Exact expected :func:`top_k_score` of a uniform random size-k pick."""
    lat = np.asarray(latencies, dtype=np.float64).reshape(-1)  # selfcheck: allow[SC103]
    n = lat.shape[0]
    if n == 0:
        raise ValueError("random_top_k_score needs at least one candidate")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if np.any(lat <= 0.0):
        raise ValueError("latencies must be positive")
    if k >= n:
        return 1.0
    lat_sorted = np.sort(lat)
    best = lat_sorted[0]
    total = math.comb(n, k)
    # P(best pick is the (i+1)-th fastest) = C(n-1-i, k-1) / C(n, k).
    score = 0.0
    for i in range(n - k + 1):
        score += math.comb(n - 1 - i, k - 1) / total * (best / lat_sorted[i])
    return float(score)


def top_k_scores_grouped(
    scores: np.ndarray,
    latencies: np.ndarray,
    groups: np.ndarray,
    ks: "tuple[int, ...]" = (1, 5),
) -> dict[int, float]:
    """Mean :func:`top_k_score` over contiguous groups, one entry per k."""
    s = np.asarray(scores).reshape(-1)
    lat = np.asarray(latencies).reshape(-1)
    gids = np.asarray(groups).reshape(-1)
    if not s.shape == lat.shape == gids.shape:
        raise ValueError(
            f"shape mismatch: scores {s.shape}, latencies {lat.shape}, "
            f"groups {gids.shape}"
        )
    bounds = group_bounds(gids)
    if bounds.shape[0] < 2:
        raise ValueError("no groups to score")
    runs = list(zip(bounds[:-1], bounds[1:]))
    out: dict[int, float] = {}
    for k in ks:
        out[int(k)] = float(
            np.mean([top_k_score(s[a:b], lat[a:b], k) for a, b in runs])
        )
    return out


def random_top_k_scores_grouped(
    latencies: np.ndarray,
    groups: np.ndarray,
    ks: "tuple[int, ...]" = (1, 5),
) -> dict[int, float]:
    """Mean exact random baseline over contiguous groups, per k."""
    lat = np.asarray(latencies).reshape(-1)
    gids = np.asarray(groups).reshape(-1)
    if lat.shape != gids.shape:
        raise ValueError(
            f"shape mismatch: latencies {lat.shape}, groups {gids.shape}"
        )
    bounds = group_bounds(gids)
    if bounds.shape[0] < 2:
        raise ValueError("no groups to score")
    runs = list(zip(bounds[:-1], bounds[1:]))
    out: dict[int, float] = {}
    for k in ks:
        out[int(k)] = float(
            np.mean([random_top_k_score(lat[a:b], k) for a, b in runs])
        )
    return out


__all__ = [
    "random_top_k_score",
    "random_top_k_scores_grouped",
    "top_k_score",
    "top_k_scores_grouped",
]
