"""Crash-resume: interrupted builds continue to bit-identical stores.

The contract under test is the store's durability discipline: completed
shards are an atomic, journaled prefix; everything else (a truncated
``*.tmp`` staging dir, a stale unjournaled shard, a corrupted completed
shard) is detected and recomputed, and the finished store — shard bytes
and manifest bytes — is indistinguishable from an uninterrupted build.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dataset import DatasetSpec, Manifest, ShardReader, build_dataset
from repro.dataset.manifest import MANIFEST_FILENAME
from repro.dataset.pipeline import DatasetError
from repro.dataset.shards import COLUMN_NAMES, TMP_SUFFIX, shard_dir, shard_name


def spec(**kw) -> DatasetSpec:
    # >= 2 platforms of each target so resume restarts mid-batch fan-out.
    base = dict(
        name="t-resume",
        networks=("bert_tiny",),
        platforms=("platinum-8272", "e5-2673", "t4", "k80"),
        candidates_per_task=16,
        shard_size=48,  # shard boundaries never align with batch boundaries
        holdout_networks=(),
    )
    base.update(kw)
    return DatasetSpec(**base)


def assert_stores_identical(dir_a, dir_b) -> None:
    a, b = Manifest.load(dir_a), Manifest.load(dir_b)
    assert a.store_digest() == b.store_digest()
    assert a.to_dict() == b.to_dict()
    assert (dir_a / MANIFEST_FILENAME).read_bytes() == (
        dir_b / MANIFEST_FILENAME
    ).read_bytes()
    ra, rb = ShardReader(dir_a), ShardReader(dir_b)
    idx = np.arange(len(ra))
    for col_a, col_b in zip(ra.gather(idx, COLUMN_NAMES), rb.gather(idx, COLUMN_NAMES)):
        assert col_a.tobytes() == col_b.tobytes()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The uninterrupted build every resume scenario must reproduce."""
    s = spec()
    ref_dir = tmp_path_factory.mktemp("ref")
    manifest = build_dataset(s, ref_dir)
    assert manifest.complete
    assert len(manifest.shards) >= 4  # room to stop at interior boundaries
    return s, ref_dir, manifest


@pytest.mark.parametrize("stop_after", [1, 2, 3])
def test_resume_from_every_shard_boundary(reference, tmp_path, stop_after):
    s, ref_dir, _ = reference
    partial = build_dataset(s, tmp_path, stop_after_shards=stop_after)
    assert not partial.complete
    assert len(partial.shards) == stop_after
    assert partial.records_done() == stop_after * s.shard_size

    resumed = build_dataset(s, tmp_path, resume=True)
    assert resumed.complete
    assert_stores_identical(tmp_path, ref_dir)


def test_resume_discards_truncated_partial_shard(reference, tmp_path):
    """Simulate dying mid-shard: a half-written ``*.tmp`` staging dir on
    disk, manifest journaled only through the previous boundary."""
    s, ref_dir, _ = reference
    build_dataset(s, tmp_path, stop_after_shards=2)

    # Hand-craft the in-flight shard the crash left behind: a staging dir
    # with some columns missing and one truncated to half its rows.
    tmp_shard = tmp_path / (shard_name(2) + TMP_SUFFIX)
    tmp_shard.mkdir()
    intact = np.load(shard_dir(tmp_path, 1) / "latency.npy")
    np.save(tmp_shard / "latency.npy", intact[: len(intact) // 2])

    resumed = build_dataset(s, tmp_path, resume=True)
    assert resumed.complete
    assert not tmp_shard.exists()  # staging debris swept on resume
    assert_stores_identical(tmp_path, ref_dir)


def test_resume_deletes_unjournaled_shard_dirs(reference, tmp_path):
    """A shard dir fully renamed into place but never journaled (crash
    between rename and manifest save) must be recomputed, not trusted."""
    s, ref_dir, _ = reference
    build_dataset(s, tmp_path, stop_after_shards=2)

    rogue = shard_dir(tmp_path, 3)
    rogue.mkdir()
    np.save(rogue / "latency.npy", np.zeros(s.shard_size, dtype=np.float32))

    resumed = build_dataset(s, tmp_path, resume=True)
    assert resumed.complete
    assert_stores_identical(tmp_path, ref_dir)


def test_resume_with_digest_verify_recomputes_corrupt_prefix(reference, tmp_path):
    """Flip one byte inside a *journaled* shard: shape-level verify can't
    see it, digest-level verify truncates the trusted prefix there."""
    s, ref_dir, _ = reference
    build_dataset(s, tmp_path, stop_after_shards=3)

    path = shard_dir(tmp_path, 1) / "X.npy"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))

    resumed = build_dataset(s, tmp_path, resume=True, verify="digest")
    assert resumed.complete
    assert_stores_identical(tmp_path, ref_dir)


def test_resume_refuses_spec_and_vocab_drift(reference, tmp_path):
    s, _, _ = reference
    build_dataset(s, tmp_path, stop_after_shards=1)

    with pytest.raises(DatasetError, match="spec mismatch"):
        build_dataset(spec(root_seed=999), tmp_path, resume=True)
    with pytest.raises(DatasetError, match="spec mismatch"):
        build_dataset(
            spec(platforms=("platinum-8272", "t4")), tmp_path, resume=True
        )


def test_resuming_a_complete_store_is_a_cheap_noop(reference, tmp_path):
    s, ref_dir, _ = reference
    build_dataset(s, tmp_path)
    again = build_dataset(s, tmp_path, resume=True)
    assert again.complete
    assert_stores_identical(tmp_path, ref_dir)


def test_load_and_resume_refuse_a_version_1_store(reference, tmp_path):
    """A version-1 store (shards with a ``static`` column) must not be
    read, nor resumed by appending version-2 shards after its own."""
    s, _, _ = reference
    build_dataset(s, tmp_path, stop_after_shards=2)
    manifest_path = tmp_path / MANIFEST_FILENAME
    old = json.loads(manifest_path.read_text())
    old["version"] = 1
    old["schema"]["static_width"] = 25
    for rec in old["shards"]:
        np.save(shard_dir(tmp_path, rec["index"]) / "static.npy",
                np.zeros((rec["n_records"], 25), dtype=np.float32))
    manifest_path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
    before = manifest_path.read_bytes()

    with pytest.raises(ValueError, match="manifest version 1"):
        Manifest.load(tmp_path)
    with pytest.raises(ValueError, match="manifest version 1"):
        ShardReader(tmp_path)
    with pytest.raises(DatasetError, match="manifest version 1"):
        build_dataset(s, tmp_path, resume=True)
    assert manifest_path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.glob("shard-*")) == [shard_name(0), shard_name(1)]
