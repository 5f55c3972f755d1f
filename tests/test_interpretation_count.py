"""Each candidate is interpreted exactly once per pipeline.

The sampler's fail-closed gate runs one fail-fast abstract
interpretation per schedule and hands the loop nest on: the dataset
build prices it, and the draft-then-verify scorer drafts from it.  Counting interpreter runs
against sampled schedules pins that no pipeline interprets a sequence
twice.
"""

from __future__ import annotations

import pytest

from repro.analysis.absint import Interpreter
from repro.core import PostprocessConfig, TLPFeaturizer
from repro.core.scoring import CandidateScorer
from repro.core.tlp_model import TLPModel, TLPModelConfig
from repro.dataset import DatasetSpec, build_dataset
from repro.dataset.pipeline import FIT_SAMPLE_PER_TASK
from repro.dataset.spec import enumerate_tasks
from repro.tensorir import SketchConfig, SketchGenerator, matmul_subgraph
from repro.tensorir.sampler import ScheduleSampler
from repro.utils.rng import stream


@pytest.fixture()
def counts(monkeypatch):
    """Live counters of interpreter runs and sampled schedules."""
    counts = {"runs": 0, "samples": 0}
    run, sample = Interpreter._run, ScheduleSampler.sample

    def counted_run(self, *args, **kwargs):
        counts["runs"] += 1
        return run(self, *args, **kwargs)

    def counted_sample(self, *args, **kwargs):
        counts["samples"] += 1
        return sample(self, *args, **kwargs)

    monkeypatch.setattr(Interpreter, "_run", counted_run)
    monkeypatch.setattr(ScheduleSampler, "sample", counted_sample)
    return counts


def test_build_dataset_interprets_each_candidate_once(counts, tmp_path):
    spec = DatasetSpec(
        name="interpretation-count",
        networks=("bert_tiny",),
        platforms=("platinum-8272", "t4"),
        candidates_per_task=16,
        shard_size=64,
    )
    manifest = build_dataset(spec, tmp_path / "store")
    # One platform per target: every record is its own candidate, and the
    # featurizer fit samples its calibration sequences on top.
    calibration = FIT_SAMPLE_PER_TASK * len(enumerate_tasks(spec)) * 2
    assert counts["samples"] == manifest.records_done() + calibration
    assert counts["runs"] == counts["samples"]


def test_drafted_propose_topk_interprets_each_candidate_once(counts):
    subgraph = matmul_subgraph(64, 64, 64)
    generator = SketchGenerator(SketchConfig("cpu"))
    corpus = generator.generate_many(subgraph, 16, stream("test.count.fit"))
    featurizer = TLPFeaturizer(PostprocessConfig()).fit(corpus)
    model = TLPModel(TLPModelConfig(
        emb=featurizer.config.emb, hidden=16, n_heads=2, n_res_blocks=1,
        stream_name="test.count.model")).eval()
    scorer = CandidateScorer(model, featurizer, generator)
    counts.update(runs=0, samples=0)

    _, top = scorer.propose_topk(subgraph, 64, 8, stream("test.count.propose"),
                                 draft_keep=0.5)
    assert top.n_predicted == 32
    assert counts == {"runs": 64, "samples": 64}
