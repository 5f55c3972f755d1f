"""The dataset manifest — the store's single source of truth.

``manifest.json`` makes a shard store self-describing and restartable:
it records the full :class:`~repro.dataset.spec.DatasetSpec`, the record
geometry, the fitted featurizer vocabulary (so a resume can prove it
re-derived the identical featurizer), the task table, per-batch
sequence-length statistics (the Fig. 6 shape), and one
``(name, n_records, digest)`` entry per completed shard.

Two invariants the tests pin:

* **Pure function of (spec, progress).**  No wall-clock timestamps, no
  hostnames, sorted JSON keys — an interrupted-then-resumed build ends
  with a manifest *byte-identical* to an uninterrupted one.
* **Completed shards form a prefix.**  Shards are journaled in row
  order, one save per completed shard (atomic tmp+rename), so after a
  crash the manifest's shard list is exactly the durable prefix and the
  resume point is ``sum(n_records)``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.dataset.shards import ShardSchema, shard_name
from repro.dataset.spec import DatasetSpec

#: On-disk layout version.  2: the shards no longer carry a ``static``
#: column; a version-1 store is refused on load and on resume.
MANIFEST_VERSION = 2
MANIFEST_FILENAME = "manifest.json"

STATUS_BUILDING = "building"
STATUS_COMPLETE = "complete"


@dataclass(frozen=True)
class ShardRecord:
    """One completed shard: name, row count, content digest."""

    index: int
    n_records: int
    digest: str

    @property
    def name(self) -> str:
        return shard_name(self.index)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "n_records": self.n_records,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ShardRecord":
        return cls(index=int(d["index"]), n_records=int(d["n_records"]), digest=d["digest"])


def vocab_digest(vocab: dict[str, int]) -> str:
    """Stable digest of a fitted featurizer vocabulary."""
    payload = json.dumps(sorted(vocab.items()), separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class Manifest:
    """Everything needed to reproduce, resume, and read one store."""

    spec: DatasetSpec
    schema: ShardSchema
    vocab: dict[str, int]
    tasks: list[dict]            # [{"task_id", "network", "subgraph", "split"}]
    total_records: int
    shards: list[ShardRecord] = field(default_factory=list)
    #: Per-batch sequence-length stats keyed by ``BatchPlan.key``
    #: ("task0003.cpu"): {"n", "min_len", "max_len", "mean_len", "hist"}.
    batch_stats: dict[str, dict] = field(default_factory=dict)
    status: str = STATUS_BUILDING
    #: Fig. 6-style aggregate, filled in when the build completes.
    stats: "dict | None" = None
    version: int = MANIFEST_VERSION

    # -- progress --------------------------------------------------------

    def records_done(self) -> int:
        return sum(s.n_records for s in self.shards)

    @property
    def complete(self) -> bool:
        return self.status == STATUS_COMPLETE

    def store_digest(self) -> str:
        """Digest of the whole store: the shard digests, in order."""
        digest = hashlib.sha256()
        for s in self.shards:
            digest.update(f"{s.name}:{s.n_records}:{s.digest}\n".encode("utf-8"))
        return digest.hexdigest()

    def network_of_task(self, task_id: int) -> str:
        return self.tasks[task_id]["network"]

    def split_of_task(self, task_id: int) -> str:
        return self.tasks[task_id]["split"]

    # -- aggregate statistics -------------------------------------------

    def finalize_stats(self) -> None:
        """Fold the per-batch stats into the Fig. 6 aggregate and mark
        the store complete."""
        hist: dict[int, int] = {}
        per_network: dict[str, dict[str, float]] = {}
        for key in sorted(self.batch_stats):
            entry = self.batch_stats[key]
            task_id = int(key.split(".")[0][len("task"):])
            net = self.network_of_task(task_id)
            agg = per_network.setdefault(net, {"sequences": 0, "length_sum": 0})
            agg["sequences"] += entry["n"]
            for length_str, count in entry["hist"].items():
                hist[int(length_str)] = hist.get(int(length_str), 0) + count
                agg["length_sum"] += int(length_str) * count
        total = sum(hist.values())
        mode = max(sorted(hist), key=lambda k: hist[k]) if hist else 0
        self.stats = {
            "sequences": total,
            "length_hist": {str(k): hist[k] for k in sorted(hist)},
            "min_len": min(hist) if hist else 0,
            "max_len": max(hist) if hist else 0,
            "mean_len": round(
                sum(k * v for k, v in hist.items()) / total, 6
            ) if total else 0.0,
            "mode_len": mode,
            "per_network": {
                net: {
                    "sequences": agg["sequences"],
                    "mean_len": round(agg["length_sum"] / agg["sequences"], 6)
                    if agg["sequences"] else 0.0,
                }
                for net, agg in sorted(per_network.items())
            },
            "records": {
                "total": self.total_records,
                "train": sum(
                    self.batch_rows(key)
                    for key in self.batch_stats
                    if self.split_of_task(int(key.split(".")[0][len("task"):])) == "train"
                ),
                "holdout": sum(
                    self.batch_rows(key)
                    for key in self.batch_stats
                    if self.split_of_task(int(key.split(".")[0][len("task"):])) == "holdout"
                ),
            },
        }
        self.status = STATUS_COMPLETE

    def batch_rows(self, key: str) -> int:
        """Record rows one batch contributed (candidates x its platforms)."""
        target = key.split(".")[1]
        return self.batch_stats[key]["n"] * len(self.spec.platform_ids_for_target(target))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "status": self.status,
            "spec": self.spec.to_dict(),
            "schema": self.schema.to_dict(),
            "vocab": self.vocab,
            "vocab_digest": vocab_digest(self.vocab),
            "tasks": self.tasks,
            "total_records": self.total_records,
            "shards": [s.to_dict() for s in self.shards],
            "batch_stats": self.batch_stats,
            "stats": self.stats,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Manifest":
        if d.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"manifest version {d.get('version')!r} != supported {MANIFEST_VERSION}"
            )
        recorded = d.get("vocab_digest")
        actual = vocab_digest(d["vocab"])
        if recorded != actual:
            raise ValueError(
                f"manifest vocab digest mismatch: recorded {recorded!r}, actual {actual!r}"
            )
        return cls(
            spec=DatasetSpec.from_dict(d["spec"]),
            schema=ShardSchema.from_dict(d["schema"]),
            vocab=dict(d["vocab"]),
            tasks=list(d["tasks"]),
            total_records=int(d["total_records"]),
            shards=[ShardRecord.from_dict(s) for s in d["shards"]],
            batch_stats=dict(d["batch_stats"]),
            status=d["status"],
            stats=d.get("stats"),
            version=int(d["version"]),
        )

    def save(self, store_dir: Path) -> Path:
        """Atomically (tmp + rename) write ``manifest.json``.

        Serialization is canonical — sorted keys, fixed separators — so
        equal manifests are equal bytes.
        """
        path = Path(store_dir) / MANIFEST_FILENAME
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, store_dir: Path) -> "Manifest":
        path = Path(store_dir) / MANIFEST_FILENAME
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


__all__ = [
    "MANIFEST_FILENAME",
    "MANIFEST_VERSION",
    "Manifest",
    "STATUS_BUILDING",
    "STATUS_COMPLETE",
    "ShardRecord",
    "vocab_digest",
]
