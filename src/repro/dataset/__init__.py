"""TenSet-scale streaming dataset factory (ROADMAP item 1).

Turns ``(network-pool spec, platforms, root seed)`` into a columnar,
memory-mapped, bit-reproducible shard store of TLP training records —
featurized ``[N, seq_len, emb]`` planes, simulated latencies, per-task
``min_latency/latency`` labels, and ``(task_id, platform_id, candidate,
seed)`` provenance — plus a JSON manifest that makes the store
resumable from ``(manifest, root seed)`` after a crash mid-shard.

* ``spec``     — :class:`DatasetSpec` and the deterministic row plan.
* ``pipeline`` — :func:`build_dataset`, the single-pass generation hot
  path (``make smoke-dataset`` runs its 2-platform smoke).
* ``shards``   — fixed-size columnar ``.npy`` shard format + writer.
* ``manifest`` — the journaled store description.
* ``reader``   — :class:`ShardReader`, the zero-copy training view the
  trainer gathers batches from.
"""

from repro.dataset.manifest import Manifest, ShardRecord
from repro.dataset.pipeline import DatasetError, build_dataset, fit_featurizer, smoke_spec
from repro.dataset.reader import ShardReader
from repro.dataset.shards import COLUMN_NAMES, ShardSchema, ShardWriter
from repro.dataset.spec import (
    BatchPlan,
    DatasetSpec,
    Task,
    enumerate_tasks,
    plan_batches,
    total_records,
)

__all__ = [
    "BatchPlan",
    "COLUMN_NAMES",
    "DatasetError",
    "DatasetSpec",
    "Manifest",
    "ShardReader",
    "ShardRecord",
    "ShardSchema",
    "ShardWriter",
    "Task",
    "build_dataset",
    "enumerate_tasks",
    "fit_featurizer",
    "plan_batches",
    "smoke_spec",
    "total_records",
]
