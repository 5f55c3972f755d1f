"""Micro-benchmarks pinning the inference fast-path perf claims (ISSUE 4).

The claims, measured on a 1,024-schedule featurized batch of sampled
matmul schedules (the batch geometry one evolutionary round scores):

* tape-free ``TLPModel.predict`` is >= 3x faster than the taped
  autograd ``forward`` — and bit-identical to it;
* steady-state ``predict`` allocates no large buffers (every scratch
  probe hits the arena);
* the end-to-end ``CandidateScorer`` loop (verify -> featurize ->
  predict -> top-k) sustains serving-grade candidates/sec.

``make bench-save`` records the exact numbers into
``BENCH_nn_inference.json`` (measured 4.3x).  ``test_perf_claims``
asserts the ratio with a wide margin: the taped baseline's cost is
dominated by large-buffer allocation, whose price swings ~2x with host
memory state (hugepage availability), while the allocation-free
``predict`` is stable — so the in-suite floor is set below the worst
observed ratio and exists to catch fast-path regressions, not to pin
the headline number.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CandidateScorer,
    PostprocessConfig,
    TLPFeaturizer,
    TLPModel,
    TLPModelConfig,
)
from repro.tensorir import SketchConfig, SketchGenerator, matmul_subgraph
from repro.utils.rng import stream
from repro.utils.timer import best_of

BATCH = 1024

_CONFIG = TLPModelConfig(emb=22, hidden=64, n_heads=4, n_res_blocks=2,
                         stream_name="bench.inference.model")


@pytest.fixture(scope="module")
def corpus():
    gen = SketchGenerator(SketchConfig("cpu"))
    return gen.generate_many(matmul_subgraph(128, 128, 128), BATCH,
                             stream("bench.inference"))


@pytest.fixture(scope="module")
def featurizer(corpus):
    return TLPFeaturizer(PostprocessConfig()).fit(corpus)


@pytest.fixture(scope="module")
def batch(featurizer, corpus):
    return featurizer.transform(corpus)


@pytest.fixture(scope="module")
def model():
    return TLPModel(_CONFIG).eval()


def test_taped_forward_batch1024(benchmark, model, batch):
    """Baseline: the full autograd-taped forward pass."""
    X, mask = batch
    scores = benchmark(model, X, mask)
    assert scores.data.shape == (BATCH,)


def test_predict_batch1024(benchmark, model, batch):
    """The fused fast path; asserts bit-identity against the taped run."""
    X, mask = batch
    taped = model(X, mask).data
    scores = benchmark(model.predict, X, mask)
    assert np.array_equal(scores, taped)


def test_candidate_scorer_end_to_end(benchmark, model, featurizer, corpus):
    """verify -> featurize -> predict -> top-k over the full batch."""
    scorer = CandidateScorer(model, featurizer)
    subgraph = corpus[0].subgraph
    top = benchmark(scorer.score_topk, subgraph, corpus, 32)
    assert len(top.indices) == 32
    assert top.n_invalid == 0


def test_perf_claims(benchmark, model, batch):
    """Regression floor for the fast path (headline number: bench-save).

    The floor is 1.5x, well under the recorded 4.3x: when the host can
    back the taped path's ~6 MB intermediates with hugepages, taped
    allocation gets ~2x cheaper and the measured ratio dips toward 1.8
    even though ``predict``'s absolute time is unchanged.  A fast-path
    regression (e.g. accidental per-call allocation) would push the
    ratio toward 1.0 and still trip this.
    """
    X, mask = batch
    taped = model(X, mask).data

    def measure():
        model.predict(X, mask)  # warm the arena
        t_taped = best_of(lambda: model(X, mask), repeats=3)
        t_predict = best_of(lambda: model.predict(X, mask), repeats=3)
        return {"predict_speedup": t_taped / t_predict}

    ratios = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert np.array_equal(model.predict(X, mask), taped)
    assert ratios["predict_speedup"] >= 1.5, ratios
