"""GroupedBatchSampler: group-contiguous packing, seeded epochs, resume."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import GroupedBatchSampler
from repro.utils.rng import stream


def _grouped_fixture(n_groups=5, rows_per_group=13, seed_name="t.data.grp"):
    """Group ids of ``n_groups`` groups, scattered so no group is contiguous."""
    gids = np.repeat(np.arange(10, 10 + n_groups), rows_per_group)
    return gids[stream(seed_name).permutation(gids.shape[0])]


def test_grouped_loader_batches_are_group_contiguous_and_cover_epoch():
    gids = _grouped_fixture()
    loader = GroupedBatchSampler(gids, batch_size=24, segment_size=8,
                                stream_name="t.grp.cover")
    seen = []
    for idx, bg in loader.iter_indices():
        assert idx.shape == bg.shape and idx.dtype == np.int64
        assert idx.shape[0] <= 24
        # every group's rows are one contiguous run
        changes = np.flatnonzero(np.diff(bg) != 0) + 1
        run_ids = bg[np.concatenate(([0], changes))]
        assert np.unique(run_ids).shape[0] == run_ids.shape[0]
        # group labels are truthful
        assert np.array_equal(gids[idx], bg)
        seen.extend(idx.tolist())
    assert sorted(seen) == list(range(gids.shape[0]))


def test_grouped_loader_segments_never_split_below_pair_size():
    """Packing keeps whole segments: a batch never receives a partial
    segment, so group runs inside a batch have >= min(group, segment)
    rows except for genuine remainder chunks."""
    gids = _grouped_fixture(n_groups=3, rows_per_group=9, seed_name="t.grp.seg")
    loader = GroupedBatchSampler(gids, batch_size=8, segment_size=4,
                                stream_name="t.grp.seg.loader")
    # 9 rows -> segments of 4, 4, 1 per group; batches pack whole segments.
    sizes = [idx.shape[0] for idx, _ in loader.iter_indices()]
    assert sum(sizes) == 27
    assert all(s <= 8 for s in sizes)


def test_grouped_loader_epoch_resume_is_bit_identical():
    """Epoch k is a pure function of (stream name, k): a fresh loader
    fast-forwarded via load_state_dict replays the interrupted run."""
    gids = _grouped_fixture(seed_name="t.grp.resume")
    mk = lambda: GroupedBatchSampler(gids, batch_size=16, segment_size=8,
                                    stream_name="t.grp.resume.loader")
    full = mk()
    epochs = [[(i.tobytes(), g.tobytes()) for i, g in full.iter_indices()]
              for _ in range(4)]
    resumed = mk()
    resumed.load_state_dict({"epoch": np.int64(2)})
    replay = [[(i.tobytes(), g.tobytes()) for i, g in resumed.iter_indices()]
              for _ in range(2)]
    assert replay == epochs[2:]
    assert resumed.epoch == 4


def test_grouped_loader_epoch_advances_only_on_full_consumption():
    gids = _grouped_fixture(seed_name="t.grp.partial")
    loader = GroupedBatchSampler(gids, batch_size=16, segment_size=8,
                                stream_name="t.grp.partial.loader")
    it = loader.iter_indices()
    next(it)
    assert loader.epoch == 0  # abandoned mid-epoch: counter untouched
    list(loader.iter_indices())
    assert loader.epoch == 1


def test_grouped_loader_validates_geometry():
    gids = _grouped_fixture(seed_name="t.grp.valid")
    with pytest.raises(ValueError, match="batch_size"):
        GroupedBatchSampler(gids, batch_size=4, segment_size=8)
    with pytest.raises(ValueError, match="segment_size"):
        GroupedBatchSampler(gids, batch_size=4, segment_size=0)


def test_same_stream_name_gives_identical_epoch_order():
    gids = _grouped_fixture(seed_name="t.grp.seeded")
    a = GroupedBatchSampler(gids, batch_size=16, segment_size=8, stream_name="t.grp.same")
    b = GroupedBatchSampler(gids, batch_size=16, segment_size=8, stream_name="t.grp.same")
    for _ in range(3):  # epoch by epoch, bit for bit
        ea = [(i.tobytes(), g.tobytes()) for i, g in a.iter_indices()]
        eb = [(i.tobytes(), g.tobytes()) for i, g in b.iter_indices()]
        assert ea == eb


def test_epochs_reshuffle_within_one_loader():
    gids = _grouped_fixture(seed_name="t.grp.reshuffle")
    loader = GroupedBatchSampler(gids, batch_size=16, segment_size=8,
                                stream_name="t.grp.reshuffle.loader")
    first = np.concatenate([i for i, _ in loader.iter_indices()])
    second = np.concatenate([i for i, _ in loader.iter_indices()])
    assert sorted(first.tolist()) == sorted(second.tolist())
    assert not np.array_equal(first, second)
