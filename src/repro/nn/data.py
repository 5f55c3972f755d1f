"""Seeded, group-aware minibatch order for lambda-rank training.

:class:`GroupedBatchSampler` decides *which rows* form each batch; it never
touches record storage.  The trainer gathers the rows itself
(``ShardReader.gather`` into pooled buffers), so a multi-gigabyte store
is read one batch at a time.  Every epoch's order comes from a named
``repro.utils.rng`` stream, so a training run is a pure function of the
stream name and the epoch count.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.utils.rng import stream


class GroupedBatchSampler:
    """Row indices of minibatches packed from (task, platform) segments.

    Lambda-rank only compares candidates *within* one group, so batches
    are packed from per-group segments rather than a flat permutation:
    each epoch every group's rows are shuffled and chunked into segments
    of at most ``segment_size`` rows, the segments are shuffled globally,
    and whole segments are packed greedily into batches of at most
    ``batch_size`` rows.  Rows of one group always end up contiguous
    within a batch (segments of the same group that meet in a batch are
    merged by a stable sort), which is the layout
    ``lambda_rank_loss_grouped`` requires.

    Epoch ``k`` draws from the derived stream ``f"{name}.epoch{k}"``, so
    the sampler's entire iteration state is the epoch counter: resuming a
    run at an epoch boundary means restoring one integer
    (:meth:`state_dict` / :meth:`load_state_dict`), after which epoch
    ``k`` of the resumed sampler is bit-identical to epoch ``k`` of an
    uninterrupted one.  The counter advances only when an epoch is fully
    consumed.
    """

    def __init__(
        self,
        group_ids: np.ndarray,
        *,
        batch_size: int = 128,
        segment_size: int = 32,
        stream_name: str = "nn.data.grouped",
    ):
        gids = np.asarray(group_ids, dtype=np.int64).reshape(-1)
        if segment_size < 1:
            raise ValueError(f"segment_size must be >= 1, got {segment_size}")
        if batch_size < segment_size:
            raise ValueError(
                f"batch_size {batch_size} < segment_size {segment_size}: "
                "a full segment must fit in one batch"
            )
        self.group_ids = gids
        self.batch_size = int(batch_size)
        self.segment_size = int(segment_size)
        self.stream_name = str(stream_name)
        self.epoch = 0
        # Row positions per group, computed once: stable sort keeps the
        # within-group row order deterministic.
        order = np.argsort(gids, kind="stable")
        uniq, starts = np.unique(gids[order], return_index=True)
        ends = np.append(starts[1:], order.shape[0])
        self._groups = [
            (int(g), order[s:e]) for g, s, e in zip(uniq, starts, ends)
        ]

    def iter_indices(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(row_indices, group_ids)`` pairs for one epoch.

        Row indices are positions into the constructor's ``group_ids``.
        Both arrays are int64 and row-aligned; rows of one group are
        contiguous.  Consuming the full epoch advances the epoch counter.
        """
        gen = stream(f"{self.stream_name}.epoch{self.epoch}")
        # Draw order is fixed — one permutation per group in ascending
        # group-id order, then the segment shuffle — so the epoch is a
        # pure function of (stream name, epoch number).
        segments: list[tuple[int, np.ndarray]] = []
        for gid, rows in self._groups:
            perm = rows[gen.permutation(rows.shape[0])]
            for s in range(0, perm.shape[0], self.segment_size):
                segments.append((gid, perm[s : s + self.segment_size]))
        seg_order = gen.permutation(len(segments))

        pending: list[tuple[int, np.ndarray]] = []
        count = 0
        for si in seg_order:
            gid, seg = segments[si]
            if count and count + seg.shape[0] > self.batch_size:
                yield self._emit(pending)
                pending, count = [], 0
            pending.append((gid, seg))
            count += seg.shape[0]
        if pending:
            yield self._emit(pending)
        self.epoch += 1

    @staticmethod
    def _emit(pending: list[tuple[int, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
        idx = np.concatenate([seg for _, seg in pending])
        gids = np.concatenate(
            [np.full(seg.shape[0], gid, dtype=np.int64) for gid, seg in pending]
        )
        # Same-group segments packed into one batch merge into a single
        # contiguous run; stable sort preserves within-segment order.
        order = np.argsort(gids, kind="stable")
        return idx[order].astype(np.int64), gids[order]

    def state_dict(self) -> dict[str, np.ndarray]:
        return {"epoch": np.int64(self.epoch).reshape(())}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        epoch = int(np.asarray(state["epoch"]))
        if epoch < 0:
            raise ValueError(f"negative loader epoch {epoch}")
        self.epoch = epoch


__all__ = ["GroupedBatchSampler"]
