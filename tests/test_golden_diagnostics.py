"""Golden digest of the verifier's collect-all diagnostics.

The corpus is deterministic: sampled schedules for every subgraph of
``sample_subgraph_pool()`` on both targets, each one clean, under every
corruption class in ``corruptions.py``, and (for the first few) under
every ordered pair of corruptions, so the recovery after a first error is
exercised too.  The digest covers ``(code, primitive_index, axis,
severity)`` of every diagnostic in emission order; messages are free to
change, codes, steps, axes and ordering are not.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from corruptions import CORRUPTIONS
from repro.analysis import CODES, VerifierConfig, verify_sequence
from repro.tensorir import (
    Axis,
    Schedule,
    SketchConfig,
    SketchGenerator,
    Subgraph,
    sample_subgraph_pool,
)
from repro.tensorir import primitives as P
from repro.utils.rng import stream

#: Sampled schedules per (subgraph, target); the first ``PAIRWISE`` of
#: them also get every ordered pair of corruptions.
PER_POOL = 6
PAIRWISE = 2

#: Thresholds low enough that every smell rule (W301–W306) fires somewhere.
TIGHT = VerifierConfig(
    pow2_conflict_threshold=2,
    max_auto_unroll=8,
    footprint_llc_kb=1.0,
    parallel_min_extent=10**6,
    unroll_body_budget=1,
)

#: Recovery paths the sampled corpus cannot reach: axis names that collide
#: with split/fuse results (E203), and errors that do not stop a step.
_COLLIDING = Subgraph(
    "golden.collide", (Axis("i", 16), Axis("i.0", 4), Axis("j", 8), Axis("i@j", 2))
)
HANDWRITTEN = (
    (P.split("i", 16, (4,)), P.annotate("i.1", "parallel"), P.annotate("i.0", "unroll")),
    (P.fuse(("i", "j")), P.reorder(("i.0", "i@j")), P.annotate("i@j", "parallel")),
    (P.annotate("i", "vectorize"), P.split("i", 17, (4,)), P.annotate("i.1", "unroll")),
    (P.split("j", 8, (2,)), P.follow_split("i", 16, 0), P.fuse(("i.0", "i.1"))),
    (P.compute_inline(), P.compute_inline(), P.cache_write()),
    (P.cache_write(), P.compute_at("j"), P.compute_root(), P.compute_inline()),
    (P.pragma("j", "auto_unroll_max_step", 4096), P.pragma("j", "unroll_explicit", 1)),
    (P.annotate("j", "unroll"), P.annotate("i", "parallel"), P.annotate("i.0", "unroll")),
)

GOLDEN_DIGEST = "8173d98467c9ab38129ad7abd6a8fee7ef2da084e3f44751bc4b1fde2e073420"
GOLDEN_SEQUENCES = 7057


def corpus():
    """(subgraph, primitives, target, config) tuples, in a fixed order."""
    for prims in HANDWRITTEN:
        for target in ("cpu", "gpu"):
            yield _COLLIDING, prims, target, None
            yield _COLLIDING, prims, target, TIGHT
    for sg in sample_subgraph_pool():
        for target in ("cpu", "gpu"):
            schedules = SketchGenerator(SketchConfig(target)).generate_many(
                sg, PER_POOL, stream(f"golden.diagnostics.{sg.name}.{target}")
            )
            for n, schedule in enumerate(schedules):
                yield sg, schedule.primitives, target, None
                yield sg, schedule.primitives, target, TIGHT
                for _, _, first in CORRUPTIONS:
                    once = first(schedule)
                    if once is None:
                        continue
                    yield sg, once, target, None
                    if n >= PAIRWISE:
                        continue
                    mutated = Schedule(sg, once, target)
                    for _, _, second in CORRUPTIONS:
                        twice = second(mutated)
                        if twice is not None:
                            yield sg, twice, target, None


def diagnostics_digest() -> tuple[str, int, Counter]:
    h = hashlib.sha256()
    n = 0
    codes: Counter = Counter()
    for sg, prims, target, config in corpus():
        diags = verify_sequence(sg, prims, target, config)
        row = [(d.code, d.primitive_index, d.axis, int(d.severity)) for d in diags]
        h.update(repr(row).encode())
        h.update(b"\n")
        codes.update(d.code for d in diags)
        n += 1
    return h.hexdigest(), n, codes


def test_collect_all_diagnostics_match_golden_digest():
    digest, n, codes = diagnostics_digest()
    # The corpus must reach every code, or the digest would pin less
    # than it claims to.
    assert set(codes) == set(CODES), codes
    assert n == GOLDEN_SEQUENCES
    assert digest == GOLDEN_DIGEST, dict(sorted(codes.items()))
