"""Abstract-interpreter benchmarks: interpretation throughput and the
Pruner-style draft-then-verify serving win.

The headline comparison: ``CandidateScorer.propose_topk`` with
``draft_keep=0.5`` must beat the full-predict path on wall clock while
sending at most half the candidates to ``TLPModel.predict`` and
preserving the full path's exact top-1 pick.  For the draft to be a
*meaningful* screen the model has to rank like the simulated hardware,
so the fixture briefly trains the TLP model on ``simhw`` labels (the
seeded recipe below is deterministic end to end); at ``hidden=256`` one
predict over 1,024 candidates costs ~0.7 s, which is the regime where a
free static draft pays for itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import absint
from repro.core.extractor import TLPFeaturizer
from repro.core.postprocess import PostprocessConfig
from repro.core.scoring import CandidateScorer
from repro.core.tlp_model import TLPModel, TLPModelConfig
from repro.nn import Adam
from repro.simhw import labels_from_latencies, measure_many
from repro.tensorir import SketchConfig, SketchGenerator, matmul_subgraph
from repro.utils.rng import stream
from repro.utils.timer import best_of

N_CANDIDATES = 1024
TOP_K = 16
DRAFT_KEEP = 0.5

_TRAIN = 512
_EPOCHS = 12
_BATCH = 64
_LR = 3e-3


def build_subgraph():
    return matmul_subgraph(128, 128, 128)


def interpret_batch(subgraph, candidates):
    """Every candidate's loop nest, from one interpreter for the batch."""
    interp = absint.Interpreter(subgraph, "cpu")
    return [interp.profile(s.primitives) for s in candidates]


def build_trained_scorer(subgraph):
    """Featurizer + TLP model trained briefly on simhw platinum labels.

    Labels are standardized (ranking-invariant) so the regression head
    converges from its raw init scale within a few epochs; the point is
    rank correlation with the hardware model, not calibrated latencies.
    """
    gen = SketchGenerator(SketchConfig("cpu"))
    corpus = gen.generate_many(subgraph, N_CANDIDATES, stream("bench.absint.corpus"))
    featurizer = TLPFeaturizer(PostprocessConfig()).fit(corpus)
    model = TLPModel(TLPModelConfig(
        emb=featurizer.config.emb, hidden=256, n_heads=8, n_res_blocks=2,
        stream_name="bench.absint.model"))

    train = corpus[:_TRAIN]
    raw = labels_from_latencies(measure_many(subgraph, train, "platinum-8272"))
    labels = (raw - raw.mean()) / raw.std()
    X, M = featurizer.transform(train)
    opt = Adam(model.parameters(), lr=_LR)
    shuffle = stream("bench.absint.shuffle")
    for _ in range(_EPOCHS):
        order = shuffle.permutation(_TRAIN)
        for i in range(0, _TRAIN, _BATCH):
            b = order[i : i + _BATCH]
            opt.zero_grad()
            diff = model(X[b], M[b]) - labels[b]
            loss = (diff * diff).mean()
            loss.backward()
            opt.step()
    model.eval()
    return CandidateScorer(model, featurizer, gen)


@pytest.fixture(scope="module")
def subgraph():
    return build_subgraph()


@pytest.fixture(scope="module")
def scorer(subgraph):
    return build_trained_scorer(subgraph)


@pytest.fixture(scope="module")
def candidates(subgraph):
    gen = SketchGenerator(SketchConfig("cpu"))
    return gen.generate_many(subgraph, N_CANDIDATES,
                             stream("bench.absint.plane"))


def test_interpreter_throughput(benchmark, subgraph, candidates):
    """One interpreter over the full candidate batch."""
    nests = benchmark(interpret_batch, subgraph, candidates)
    assert len(nests) == N_CANDIDATES
    assert nests[0] == candidates[0].apply() and nests[-1] == candidates[-1].apply()


def test_draft_scores_throughput(benchmark, subgraph, candidates):
    """Analytical draft ranking of the full candidate batch."""
    draft = benchmark(absint.draft_scores, subgraph, candidates)
    assert draft.shape == (N_CANDIDATES,) and draft.max() == np.float32(1.0)


def test_draft_then_verify_speedup(benchmark, subgraph, scorer):
    """The acceptance gate: half the predicts, same top-1, faster."""
    rng_name = "bench.absint.round"

    def full():
        return scorer.propose_topk(subgraph, N_CANDIDATES, TOP_K,
                                   stream(rng_name))

    def drafted():
        return scorer.propose_topk(subgraph, N_CANDIDATES, TOP_K,
                                   stream(rng_name), draft_keep=DRAFT_KEEP)

    _, top_full = full()
    _, top_draft = benchmark.pedantic(drafted, rounds=1, iterations=1)

    # The draft screens — it must not change the winner or widen the
    # model's workload past the keep fraction.
    assert top_draft.n_predicted <= N_CANDIDATES // 2
    assert top_full.n_predicted == N_CANDIDATES
    assert top_full.indices[0] == top_draft.indices[0], (
        f"draft-then-verify changed the top-1 pick: "
        f"{top_full.indices[0]} -> {top_draft.indices[0]}")
    # Both rankings are real model scores, descending.
    assert (top_draft.scores[:-1] >= top_draft.scores[1:]).all()

    t_full = best_of(full, 3)
    t_draft = best_of(drafted, 3)
    speedup = t_full / t_draft
    # Recorded ~1.2x at hidden=256 (draft overhead ~0.25 s vs the ~0.35 s
    # of predict it saves); the floor is wide to stay robust to load.
    assert speedup > 1.05, (
        f"draft-then-verify no faster than full predict: "
        f"{t_full * 1e3:.0f} ms vs {t_draft * 1e3:.0f} ms ({speedup:.2f}x)")
    benchmark.extra_info["t_full_ms"] = t_full * 1e3
    benchmark.extra_info["t_draft_ms"] = t_draft * 1e3
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["n_predicted"] = int(top_draft.n_predicted)
