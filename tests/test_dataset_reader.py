"""ShardReader: mmap gathers, index validation, and splits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset import ShardReader, build_dataset
from repro.dataset.pipeline import smoke_spec
from repro.dataset.shards import COLUMN_NAMES


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    spec = smoke_spec()
    store_dir = tmp_path_factory.mktemp("reader-store")
    manifest = build_dataset(spec, store_dir)
    assert len(manifest.shards) >= 3  # gathers below must cross boundaries
    return spec, store_dir, manifest


@pytest.fixture(scope="module")
def reader(store):
    _, store_dir, _ = store
    return ShardReader(store_dir)


def dense(reader: ShardReader, columns=("X", "mask", "label")):
    """Reference copy: every record via one big ordered gather."""
    return reader.gather(np.arange(len(reader)), columns=columns)


def test_len_and_default_columns(store, reader):
    _, _, manifest = store
    assert len(reader) == manifest.total_records
    X, mask, label = reader.gather(np.asarray([0, 1]))
    assert X.shape[1:] == (manifest.schema.seq_len, manifest.schema.emb)
    assert mask.shape[1:] == (manifest.schema.seq_len,)
    assert label.shape == (2,)


def test_gather_crosses_shard_boundaries_in_request_order(store, reader):
    spec, _, _ = store
    X_all, mask_all, label_all = dense(reader)
    # Deliberately straddle every boundary, out of order, with repeats.
    boundaries = np.asarray(
        [spec.shard_size - 1, spec.shard_size, 2 * spec.shard_size - 1, 0]
    )
    indices = np.concatenate([boundaries, boundaries[::-1], [len(reader) - 1]])
    X, mask, label = reader.gather(indices)
    assert np.array_equal(X, X_all[indices])
    assert np.array_equal(mask, mask_all[indices])
    assert np.array_equal(label, label_all[indices])


def test_gather_rejects_out_of_range(reader):
    with pytest.raises(IndexError):
        reader.gather(np.asarray([len(reader)]))
    with pytest.raises(IndexError):
        reader.gather(np.asarray([-1]))
    with pytest.raises(ValueError, match="unknown column"):
        ShardReader(reader.store_dir, columns=("X", "nope"))


def test_record_returns_every_column(reader):
    rec = reader.record(3)
    assert set(rec) == set(COLUMN_NAMES)
    assert rec["X"].ndim == 2
    assert rec["label"].shape == ()


def test_split_indices_partition_by_network(store, reader):
    spec, _, manifest = store
    train = reader.split_indices("train")
    holdout = reader.split_indices("holdout")
    assert len(train) + len(holdout) == len(reader)
    assert not np.intersect1d(train, holdout).size
    task_ids = reader.task_ids()
    for name, idx in (("train", train), ("holdout", holdout)):
        nets = {manifest.network_of_task(int(t)) for t in task_ids[idx]}
        for net in nets:
            assert (spec.split_of(net) == name)
    with pytest.raises(ValueError, match="unknown split"):
        reader.split_indices("test")


def test_gather_rejects_boolean_masks(reader):
    """Regression: a mask used to be cast to int64, so [True, False]
    silently gathered rows 1 and 0 instead of failing."""
    with pytest.raises(TypeError, match="integers"):
        reader.gather(np.asarray([True, False]))
    with pytest.raises(TypeError, match="integers"):
        reader.gather(np.ones(len(reader), dtype=bool))


def test_gather_rejects_float_indices(reader):
    """Regression: float indices used to be truncated to row numbers."""
    with pytest.raises(TypeError, match="integers"):
        reader.gather(np.asarray([0.0, 1.7]))
    with pytest.raises(TypeError, match="integers"):
        reader.gather(1.0)
    # Any integer dtype is accepted, unsigned and scalar included.
    (label,) = reader.gather(np.asarray([1, 0], dtype=np.uint8), columns=("label",))
    (ref,) = reader.gather(np.asarray([1, 0]), columns=("label",))
    assert np.array_equal(label, ref)
    assert reader.gather(np.int32(2), columns=("label",))[0].shape == (1,)


def test_narrow_columns_are_memoized_one_load_per_shard(store, monkeypatch):
    """Regression: task_ids() used to re-concatenate every shard's narrow
    column on each call, making repeated split_indices() O(store)."""
    import repro.dataset.reader as reader_mod

    _, store_dir, _ = store
    fresh = ShardReader(store_dir)
    calls: list[tuple[int, str]] = []
    real = reader_mod.load_shard_column

    def counting(sdir, shard, name):
        calls.append((shard, name))
        return real(sdir, shard, name)

    monkeypatch.setattr(reader_mod, "load_shard_column", counting)
    first = fresh.task_ids()
    n_shards = fresh.n_shards
    assert calls == [(s, "task_id") for s in range(n_shards)]
    for _ in range(3):  # repeated callers hit the memo, not the shards
        fresh.task_ids()
        fresh.split_indices("train")
        fresh.split_indices("holdout")
    assert len(calls) == n_shards
    assert np.array_equal(fresh.task_ids(), first)
    fresh.platform_ids()
    assert len(calls) == 2 * n_shards  # one more pass, platform_id only


def test_platform_ids_match_per_record_column(reader):
    pids = reader.platform_ids()
    assert pids.dtype == np.int16
    assert pids.shape == (len(reader),)
    (ref,) = reader.gather(np.arange(len(reader)), columns=("platform_id",))
    assert np.array_equal(pids, ref)
    n_plat = len(reader.manifest.spec.platforms)
    assert set(np.unique(pids)) <= set(range(n_plat))


def test_narrow_column_rejects_wide_columns(reader):
    with pytest.raises(ValueError, match="narrow"):
        reader._narrow_column("X")


def test_gather_into_preallocated_buffers(reader):
    idx = np.asarray([0, len(reader) // 2, len(reader) - 1])
    ref = reader.gather(idx)
    cols = reader.manifest.schema.columns()
    bufs = tuple(
        np.empty((3, *cols[name][1]), dtype=cols[name][0])
        for name in ("X", "mask", "label")
    )
    out = reader.gather(idx, out=bufs)
    for o, b, r in zip(out, bufs, ref):
        assert o is b  # filled in place, returned as-is
        assert np.array_equal(o, r)


def test_gather_out_validates_shape_dtype_and_arity(reader):
    idx = np.asarray([0, 1])
    cols = reader.manifest.schema.columns()
    good = tuple(
        np.empty((2, *cols[n][1]), dtype=cols[n][0]) for n in ("X", "mask", "label")
    )
    with pytest.raises(ValueError, match="buffers"):
        reader.gather(idx, out=good[:2])
    bad_shape = (np.empty((3, *cols["X"][1]), dtype=np.float32),) + good[1:]
    with pytest.raises(ValueError, match="out buffer"):
        reader.gather(idx, out=bad_shape)
    bad_dtype = (good[0].astype(np.float64),) + good[1:]
    with pytest.raises(ValueError, match="out buffer"):
        reader.gather(idx, out=bad_dtype)
