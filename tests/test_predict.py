"""The tape-free fast path: ``TLPModel.predict``.

The acceptance properties live here:

* ``predict`` is bit-identical to the taped eval forward for every
  config / batch shape / ``max_chunk`` (chunk rows are independent);
* a mask buffer refilled in place between calls scores like a fresh
  mask, in ``predict`` and in the taped forward (nothing is memoized
  by mask identity);
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

from repro.core import TLPModel, TLPModelConfig
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


def test_refilled_mask_buffer_scores_like_a_fresh_mask():
    """One mask buffer refilled in place between calls must give the
    same bits as a fresh mask, in ``predict`` and in the taped forward:
    the attention bias is recomputed from the mask's current contents."""
    cfg = _CONFIGS[1]
    model = TLPModel(cfg).eval()
    X, padded = _batch(cfg, 6, 5)
    padded[:, 0] = 1.0  # every row keeps at least one real primitive
    full = np.ones_like(padded)
    assert not np.array_equal(model.predict(X, full), model.predict(X, padded))

    buf = full.copy()
    model.predict(X, buf)
    buf[...] = padded
    assert np.array_equal(model.predict(X, buf), model.predict(X, padded.copy()))

    buf = full.copy()
    model(X, buf)
    buf[...] = padded
    assert np.array_equal(model(X, buf).data, model(X, padded.copy()).data)


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
