"""MTL-TLP: shared-trunk multi-head model semantics, and the Table 9
acceptance — with a scarce target platform, a same-ISA auxiliary
platform transfers more than a cross-ISA one."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mtl import MTLTLPModel
from repro.core.tlp_model import TLPModel, TLPModelConfig
from repro.core.trainer import TrainConfig, Trainer
from repro.dataset.pipeline import build_dataset
from repro.dataset.reader import ShardReader
from repro.dataset.spec import DatasetSpec
from repro.nn import tensor
from repro.nn.losses import lambda_rank_loss_grouped
from repro.utils.rng import stream

_CFG = TLPModelConfig(emb=22, hidden=32, n_heads=2, n_res_blocks=1)
_RNG = stream("test.core.mtl")


def _batch(n=6, seq=5):
    X = (_RNG.standard_normal((n, seq, _CFG.emb)) * 0.5).astype(np.float32)
    mask = np.ones((n, seq), dtype=np.float32)
    mask[:, seq - 1] = 0.0  # one padded position, like real featurizer output
    return X, mask


def test_trunk_is_bit_identical_to_plain_tlp_model():
    """Single-task and MTL runs start from the same trunk init: every
    trunk parameter (streams are named, not positional) matches a plain
    TLPModel built from the same config, bit for bit."""
    mtl = MTLTLPModel(("a", "b"), _CFG)
    plain = TLPModel(_CFG)
    mtl_state = {k: v for k, v in mtl.state_dict().items() if k.startswith("trunk.")}
    plain_state = plain.state_dict()
    assert set(mtl_state) == {f"trunk.{k}" for k in plain_state}
    for name, arr in plain_state.items():
        assert np.array_equal(mtl_state[f"trunk.{name}"], arr), name


def test_heads_differ_from_each_other_and_from_trunk_head():
    mtl = MTLTLPModel(("a", "b"), _CFG)
    w0, w1 = mtl.heads[0].weight.data, mtl.heads[1].weight.data
    assert not np.array_equal(w0, w1)
    assert not np.array_equal(w0, mtl.trunk.head.weight.data)


def test_masked_forward_equals_per_row_head_scores():
    """Row i of the mixed-platform forward is exactly head pids[i]'s
    score for row i — the other heads' masked contributions are exact
    zeros, not small numbers."""
    mtl = MTLTLPModel(("a", "b", "c"), _CFG)
    mtl.eval()
    X, mask = _batch(n=7)
    pids = np.array([0, 2, 1, 0, 2, 2, 1])
    pooled = mtl.trunk.pool_features(X, mask)
    per_head = [h(pooled).data.reshape(-1) for h in mtl.heads]
    expected = np.array([per_head[p][i] for i, p in enumerate(pids)],
                        dtype=np.float32)
    assert np.array_equal(mtl.predict(X, mask, pids), expected)


def test_absent_head_sees_no_compute_and_no_grad():
    """A batch with rows for head 0 only must leave head 1's parameters
    with no gradient at all (so the optimizer skips them), while the
    shared trunk still learns from every row."""
    mtl = MTLTLPModel(("a", "b"), _CFG)
    X, mask = _batch(n=4)
    y = _RNG.random(4).astype(np.float32)
    loss = lambda_rank_loss_grouped(
        mtl.forward(X, mask, np.zeros(4, dtype=np.int64)), y,
        np.zeros(4, dtype=np.int64),
    )
    loss.backward()
    assert mtl.heads[0].weight.grad is not None
    assert mtl.heads[1].weight.grad is None
    assert mtl.trunk.up1.weight.grad is not None
    assert mtl.trunk.head.weight.grad is None  # trunk's own head: untrained


def test_predict_restores_training_mode():
    mtl = MTLTLPModel(("a",), _CFG)
    mtl.train()
    mtl.predict(*_batch(n=2), np.zeros(2, dtype=np.int64))
    assert mtl.training
    mtl.eval()
    mtl.predict(*_batch(n=2), np.zeros(2, dtype=np.int64))
    assert not mtl.training


def test_validation():
    with pytest.raises(ValueError, match="at least one"):
        MTLTLPModel((), _CFG)
    with pytest.raises(ValueError, match="duplicate"):
        MTLTLPModel(("a", "a"), _CFG)
    mtl = MTLTLPModel(("a", "b"), _CFG)
    with pytest.raises(KeyError, match="not in model platforms"):
        mtl.head_index("t4")
    assert mtl.head_index("b") == 1
    X, mask = _batch(n=3)
    with pytest.raises(ValueError, match="rows"):
        mtl.forward(X, mask, np.zeros(2, dtype=np.int64))
    with pytest.raises(IndexError, match="out of range"):
        mtl.forward(X, mask, np.array([0, 1, 2]))


# -- tape-free predict: the fused plan, bit-identical to eval forward -----

_PROP_MODELS = {
    (hidden, n_platforms, n_res): MTLTLPModel(
        tuple(f"p{i}" for i in range(n_platforms)),
        TLPModelConfig(emb=9, hidden=hidden, n_heads=4, n_res_blocks=n_res,
                       stream_name=f"test.core.mtl.prop.{hidden}.{n_res}"),
    ).eval()
    for hidden, n_platforms, n_res in ((16, 2, 0), (32, 3, 1), (48, 4, 2))
}


@settings(max_examples=20, deadline=None)
@given(
    key=st.sampled_from(sorted(_PROP_MODELS)),
    n=st.one_of(st.integers(2, 127), st.integers(129, 299)),
    length=st.integers(1, 25),
    used=st.integers(1, 4),
)
def test_predict_bit_identical_to_eval_forward_property(key, n, length, used):
    """Batches below and above predict's 128-row chunk, with some heads
    owning no rows; a repeated call at the same geometry misses nothing
    in the trunk's arena."""
    mtl = _PROP_MODELS[key]
    rng = stream(f"test.core.mtl.prop.batch.{key}.{n}.{length}.{used}")
    X = rng.standard_normal((n, length, 9)).astype(np.float32)
    mask = (rng.random((n, length)) < 0.7).astype(np.float32)
    pids = rng.integers(0, min(used, len(mtl.heads)), size=n)
    taped = mtl(X, mask, pids).data
    fast = mtl.predict(X, mask, pids)
    assert fast.dtype == np.float32 and fast.shape == (n,)
    assert np.array_equal(fast, taped)
    mtl.trunk._arena.reset_counters()
    assert np.array_equal(mtl.predict(X, mask, pids), taped)
    assert mtl.trunk.scratch_info()["misses"] == 0


def test_predict_builds_no_tensor(monkeypatch):
    mtl = MTLTLPModel(("a", "b"), _CFG).eval()
    X, mask = _batch(n=5)
    pids = np.array([0, 1, 1, 0, 1])
    built = []
    init = tensor.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tensor.Tensor, "__init__", counting_init)
    mtl.predict(X, mask, pids)
    assert not built
    mtl(X, mask, pids)
    assert built  # the probe does see the taped forward's tensors


# -- Table 9 on simhw: same-ISA aux transfers more than cross-ISA ---------


@pytest.fixture(scope="module")
def mtl_store(tmp_path_factory):
    """Target x86 platform plus one same-ISA (e5-2673) and one cross-ISA
    (t4, cuda) candidate auxiliary; two held-out networks so the top-k
    mean is over enough groups to separate the two runs."""
    spec = DatasetSpec(
        name="mtl-train",
        networks=("bert_tiny", "resnet18", "resnet50", "bert_base",
                  "mobilenet_v2"),
        platforms=("platinum-8272", "e5-2673", "t4"),
        candidates_per_task=64,
        shard_size=4096,
        holdout_networks=("mobilenet_v2", "resnet50"),
    )
    root = tmp_path_factory.mktemp("mtl") / "store"
    build_dataset(spec, root)
    return root


def _train_with_aux(store, aux):
    """Scarce platinum-8272 target (5% of training rows) + full-size aux
    platform; evaluate held-out top-k on the target platform only."""
    reader = ShardReader(store)
    emb = reader.manifest.schema.columns()["X"][1][-1]
    model = MTLTLPModel(
        ("platinum-8272", aux),
        TLPModelConfig(emb=emb, hidden=48, n_heads=4, n_res_blocks=2),
    )
    trainer = Trainer(model, reader, TrainConfig(
        epochs=10, batch_size=64, segment_size=16, lr=1e-3,
        platform_fractions={"platinum-8272": 0.05},
    ))
    trainer.fit()
    return trainer.evaluate(platforms=("platinum-8272",))


def test_same_isa_aux_beats_cross_isa_aux(mtl_store):
    """The paper's Table 9 shape on the simhw substrate: with scarce
    target data, an auxiliary platform of the same ISA family lifts
    held-out top-1 and top-5 above a cross-ISA auxiliary (simhw CPU
    families share rank structure that the cuda platforms do not)."""
    same = _train_with_aux(mtl_store, "e5-2673")
    cross = _train_with_aux(mtl_store, "t4")
    for k in (1, 5):
        assert same["top_k"][k] > cross["top_k"][k], (k, same, cross)
    # And same-ISA MTL is genuinely useful, not merely less bad:
    assert same["top_k"][5] > same["random_top_k"][5]
