"""Training-loop throughput: the ISSUE 8 hot path.

One offline epoch is millions of ``train_step`` calls' worth of rows, so
the per-batch cost (gather into pooled buffers -> forward -> lambda-rank
-> backward -> Adam) is what bounds wall-clock training time.  Measured
here on a real built store with the smoke-train model geometry:

* ``train_step`` on a full packed batch — the headline records/sec
  (``make bench-save`` records the exact number into
  ``BENCH_training.json``);
* steady-state gather allocations: after warm-up, every arena probe for
  the X / mask / label buffers must be a pool hit;
* a whole ``train_epoch`` for the end-to-end figure including loader
  shuffling and loss bookkeeping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tlp_model import TLPModel, TLPModelConfig
from repro.core.trainer import TrainConfig, Trainer
from repro.dataset.pipeline import build_dataset
from repro.dataset.reader import ShardReader
from repro.dataset.spec import DatasetSpec


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    spec = DatasetSpec(
        name="bench-training",
        networks=("bert_tiny", "resnet18", "mobilenet_v2"),
        platforms=("platinum-8272",),
        candidates_per_task=64,
        shard_size=4096,
        holdout_networks=("mobilenet_v2",),
    )
    root = tmp_path_factory.mktemp("bench-training") / "store"
    build_dataset(spec, root)
    return root


@pytest.fixture(scope="module")
def trainer(store):
    reader = ShardReader(store)
    emb = reader.manifest.schema.columns()["X"][1][-1]
    model = TLPModel(TLPModelConfig(emb=emb, hidden=48, n_heads=4,
                                    n_res_blocks=2,
                                    stream_name="bench.training.model"))
    return Trainer(model, reader, TrainConfig(
        epochs=4, batch_size=64, segment_size=16, lr=1e-3,
        stream_name="bench.training",
    ))


@pytest.fixture(scope="module")
def packed_batch(trainer):
    """The first full-size packed batch of epoch 0 (fixed geometry)."""
    for idx, gids in trainer.loader.iter_indices():
        if idx.shape[0] == trainer.config.batch_size:
            return idx, gids
    raise AssertionError("loader produced no full batch")


def test_train_step_batch64(benchmark, trainer, packed_batch):
    idx, gids = packed_batch
    loss = benchmark(trainer.train_step, idx, gids)
    assert np.isfinite(loss)


def test_train_step_steady_state_gathers_allocate_nothing(trainer, packed_batch):
    """After warm-up, the X / mask / label gather buffers are pure pool hits."""
    idx, gids = packed_batch
    trainer.train_step(idx, gids)  # warm the arena for this geometry
    trainer._arena.reset_counters()
    for _ in range(3):
        trainer.train_step(idx, gids)
    assert trainer._arena.misses == 0
    assert trainer._arena.hits == 9  # X + mask + label, three steps


def test_train_epoch_end_to_end(benchmark, trainer):
    mean_loss = benchmark.pedantic(trainer.train_epoch, rounds=1, iterations=1)
    assert np.isfinite(mean_loss)
