"""The tape-free fast path: ``no_grad`` and ``TLPModel.predict``.

The ISSUE 4 acceptance properties live here:

* ``no_grad()`` forward is bit-identical to the taped eval forward
  across random configs and batch shapes, and tensors produced under it
  refuse ``backward()`` with a clear error;
* ``predict`` is bit-identical to the taped eval forward for every
  config / batch shape / ``max_chunk`` (chunk rows are independent);
* steady-state ``predict`` allocates no large buffers — every scratch
  probe hits the arena;
* ``Module.state_dict`` / ``load_state_dict`` round-trip weights
  bit-exactly through ``.npz``, so a restored model predicts
  bit-identical scores.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.nn as nn
from repro.core import TLPModel, TLPModelConfig
from repro.nn import is_grad_enabled, no_grad
from repro.utils.rng import stream

_RNG = stream("test.predict")

_CONFIGS = (
    TLPModelConfig(emb=5, hidden=8, n_heads=2, n_res_blocks=0,
                   stream_name="test.predict.m0"),
    TLPModelConfig(emb=7, hidden=12, n_heads=4, n_res_blocks=1,
                   stream_name="test.predict.m1"),
    TLPModelConfig(emb=22, hidden=32, n_heads=2, n_res_blocks=2,
                   stream_name="test.predict.m2"),
)
_MODELS = {cfg: TLPModel(cfg).eval() for cfg in _CONFIGS}


def _batch(cfg, n, length):
    rng = stream(f"test.predict.batch.{n}.{length}.{cfg.emb}")
    X = rng.standard_normal((n, length, cfg.emb)).astype(np.float32)
    mask = (rng.random((n, length)) < 0.7).astype(np.float32)
    return X, mask


# -- no_grad -----------------------------------------------------------


def test_no_grad_toggles_and_restores():
    assert is_grad_enabled()
    with no_grad():
        assert not is_grad_enabled()
        with no_grad():  # reentrant
            assert not is_grad_enabled()
        assert not is_grad_enabled()
    assert is_grad_enabled()


def test_no_grad_restores_on_exception():
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    assert is_grad_enabled()


def test_no_grad_skips_the_tape():
    x = nn.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with no_grad():
        y = (x * np.float32(2.0)).sum()
    assert not y.requires_grad
    with pytest.raises(RuntimeError, match="no_grad"):
        y.backward()


def test_no_grad_refusal_propagates_to_derived_tensors():
    x = nn.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with no_grad():
        y = x * np.float32(2.0)
    z = y.sum()  # derived OUTSIDE the context, but its tape is broken
    with pytest.raises(RuntimeError, match="no_grad"):
        z.backward()
    # mixing with a live taped branch re-enters the tape: the no_grad
    # product is just a constant there, gradients flow to taped leaves
    w = (y * x).sum()
    w.backward()
    assert np.array_equal(x.grad, np.full(3, 2.0, dtype=np.float32))


def test_taped_ops_still_work_after_no_grad():
    x = nn.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with no_grad():
        (x * np.float32(2.0)).sum()
    loss = (x * np.float32(2.0)).sum()
    loss.backward()
    assert np.array_equal(x.grad, np.full(3, 2.0, dtype=np.float32))


@settings(max_examples=25, deadline=None)
@given(
    cfg=st.sampled_from(_CONFIGS),
    n=st.integers(1, 8),
    length=st.integers(1, 7),
)
def test_no_grad_forward_bit_identical_property(cfg, n, length):
    model = _MODELS[cfg]
    X, mask = _batch(cfg, n, length)
    taped = model(X, mask).data
    with no_grad():
        untaped = model(X, mask)
    assert not untaped.requires_grad
    assert np.array_equal(untaped.data, taped)


# -- predict bit-identity ----------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    cfg=st.sampled_from(_CONFIGS),
    n=st.integers(1, 9),
    length=st.integers(1, 7),
    max_chunk=st.integers(1, 12),
)
def test_predict_bit_identical_property(cfg, n, length, max_chunk):
    model = _MODELS[cfg]
    X, mask = _batch(cfg, n, length)
    taped = model(X, mask).data
    fast = model.predict(X, mask, max_chunk=max_chunk)
    assert fast.dtype == np.float32 and fast.shape == (n,)
    assert np.array_equal(fast, taped)


def test_predict_chunking_is_invisible():
    cfg = _CONFIGS[2]
    model = _MODELS[cfg]
    X, mask = _batch(cfg, 13, 6)
    full = model.predict(X, mask, max_chunk=13)
    for chunk in (1, 2, 5, 13, 64):
        assert np.array_equal(model.predict(X, mask, max_chunk=chunk), full)


def test_predict_tracks_weight_updates():
    """The plan is rebuilt per call: predict sees in-place weight edits."""
    cfg = _CONFIGS[0]
    model = TLPModel(cfg).eval()
    X, mask = _batch(cfg, 4, 3)
    before = model.predict(X, mask)
    model.head.bias.data += np.float32(1.0)
    after = model.predict(X, mask)
    assert np.array_equal(after, before + np.float32(1.0))
    assert np.array_equal(after, model(X, mask).data)


# -- steady-state allocation discipline --------------------------------


def test_predict_steady_state_is_allocation_free():
    cfg = _CONFIGS[2]
    model = TLPModel(cfg).eval()
    X, mask = _batch(cfg, 24, 6)
    model.predict(X, mask, max_chunk=8)   # cold: populate the arena
    model._arena.reset_counters()
    model.predict(X, mask, max_chunk=8)   # warm: must be all hits
    info = model.scratch_info()
    assert info["misses"] == 0, info
    assert info["hits"] > 0
    assert info["buffers"] > 0 and info["nbytes"] > 0


def test_predict_geometry_validation():
    cfg = _CONFIGS[0]
    model = _MODELS[cfg]
    X, mask = _batch(cfg, 3, 4)
    with pytest.raises(ValueError, match="expected features"):
        model.predict(X[:, :, :-1], mask)
    with pytest.raises(ValueError, match="mask shape"):
        model.predict(X, mask[:, :-1])
    with pytest.raises(ValueError, match="max_chunk"):
        model.predict(X, mask, max_chunk=0)
    # forward shares the same validation
    with pytest.raises(ValueError, match="mask shape"):
        model(X, mask[:2])


# -- state round-trip --------------------------------------------------


def _save(model: TLPModel, path) -> None:
    """Weights to ``.npz`` the way the trainer checkpoint stores them."""
    np.savez(path, **model.state_dict())


def _load(model: TLPModel, path) -> None:
    with np.load(path) as archive:
        model.load_state_dict({name: archive[name] for name in archive.files})


def test_save_load_round_trips_bit_exactly(tmp_path):
    cfg_a = _CONFIGS[1]
    saved = TLPModel(cfg_a).eval()
    _save(saved, tmp_path / "tlp.npz")

    other = TLPModelConfig(emb=cfg_a.emb, hidden=cfg_a.hidden,
                           n_heads=cfg_a.n_heads,
                           n_res_blocks=cfg_a.n_res_blocks,
                           stream_name="test.predict.other")
    restored = TLPModel(other).eval()
    X, mask = _batch(cfg_a, 5, 4)
    assert not np.array_equal(restored.predict(X, mask),
                              saved.predict(X, mask))

    _load(restored, tmp_path / "tlp.npz")
    for name, p in restored.named_parameters():
        assert np.array_equal(p.data, dict(saved.named_parameters())[name].data)
    assert np.array_equal(restored.predict(X, mask), saved.predict(X, mask))
    assert np.array_equal(restored(X, mask).data, saved(X, mask).data)


def test_load_rejects_architecture_mismatch(tmp_path):
    _save(TLPModel(_CONFIGS[0]), tmp_path / "small.npz")
    with pytest.raises(ValueError):
        _load(TLPModel(_CONFIGS[1]), tmp_path / "small.npz")
