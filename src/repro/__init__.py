"""TLP reproduction package.

The paper's offline loop — sample → verify → featurize → label → train →
score — runs through three pipelines: ``repro.dataset.build_dataset``
(build), ``repro.core.trainer.Trainer.fit`` (train) and
``repro.core.scoring.CandidateScorer`` (search).  The subpackages
(DESIGN.md §3):

* ``repro.tensorir`` — subgraphs, loop-nest IR, the 11 Ansor-style
  schedule primitive kinds, schedules, sketch rules, the random sampler
  and the per-network subgraph pools.
* ``repro.analysis`` — the one abstract interpreter of primitive
  sequences, the static verifier over it, and the repo lint.
* ``repro.core``     — TLP itself: featurization of primitive sequences
  (Fig. 4/5, Table 4 crop/pad), the Fig. 7 cost model and its MTL
  variant, the offline trainer, the Table 6/7 top-k metrics, and the
  candidate scorer.
* ``repro.nn``       — the numpy autograd substrate the model trains and
  serves with.
* ``repro.simhw``    — deterministic analytical latency models of 7
  platforms (5 CPU, 2 GPU) standing in for the TenSet measurement farm.
* ``repro.dataset``  — the streaming dataset factory: specs to columnar
  memory-mapped shard stores with a resumable manifest, read back through
  ``ShardReader``.
* ``repro.utils``    — seeded RNG streams, timers, structured logging.
"""

from __future__ import annotations

__version__ = "0.1.0"

from repro.analysis import (
    Diagnostic,
    InvalidScheduleError,
    Severity,
    verify_many,
    verify_schedule,
    verify_sequence,
)
from repro.core import (
    MTLTLPModel,
    PostprocessConfig,
    TLPFeaturizer,
    TLPModel,
    TLPModelConfig,
    TrainConfig,
    Trainer,
)
from repro.dataset import DatasetSpec, Manifest, ShardReader, build_dataset
from repro.simhw import (
    ALL_PLATFORMS,
    LatencyRecord,
    Platform,
    get_platform,
    labels_from_latencies,
    measure,
    measure_many,
)
from repro.tensorir import (
    Axis,
    Loop,
    LoopKind,
    LoopNest,
    Primitive,
    PrimitiveKind,
    Schedule,
    ScheduleError,
    ScheduleSampler,
    SketchConfig,
    SketchGenerator,
    Subgraph,
    sample_schedule,
)

__all__ = [
    "__version__",
    "ALL_PLATFORMS",
    "Axis",
    "DatasetSpec",
    "Diagnostic",
    "InvalidScheduleError",
    "LatencyRecord",
    "Loop",
    "LoopKind",
    "LoopNest",
    "MTLTLPModel",
    "Manifest",
    "Platform",
    "PostprocessConfig",
    "Primitive",
    "PrimitiveKind",
    "Schedule",
    "ScheduleError",
    "ScheduleSampler",
    "Severity",
    "ShardReader",
    "SketchConfig",
    "SketchGenerator",
    "Subgraph",
    "TLPFeaturizer",
    "TLPModel",
    "TLPModelConfig",
    "TrainConfig",
    "Trainer",
    "build_dataset",
    "get_platform",
    "labels_from_latencies",
    "measure",
    "measure_many",
    "sample_schedule",
    "verify_many",
    "verify_schedule",
    "verify_sequence",
]
