"""Reference schedule applier: the independent differential oracle.

``Schedule.apply()`` concretizes the abstract interpreter of
``repro.analysis.absint``; this module keeps a separate, concrete
implementation that rewrites the subgraph's initial loop nest primitive
by primitive, so the interpreter's nests can be checked against
something other than themselves (the way ``extractor_reference`` serves
the featurizer).  It is deliberately more lenient than the interpreter:
it does not enforce the split padding allowance (E103), and a thread tag
frees up again once its loop is fused away.  So the contract it pins is
one-directional: every verifier-clean sequence applies here to exactly
the nest ``Schedule.apply()`` returns, and every sequence this applier
rejects has an error diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.tensorir.loops import ANNOTATION_KINDS, Loop, LoopKind, LoopNest
from repro.tensorir.primitives import (
    ANNOTATIONS,
    GPU_BIND_PREFIX,
    PRAGMAS,
    Primitive,
    PrimitiveKind,
    fused_name,
    split_names,
)
from repro.tensorir.schedule import Schedule, ScheduleError, split_parts


def apply(schedule: Schedule) -> LoopNest:
    """The loop nest after every primitive; raises ``ScheduleError``."""
    return _Applier(schedule).run()[-1]


def apply_trace(schedule: Schedule) -> list[LoopNest]:
    """The nest snapshot after each primitive (one per step)."""
    return _Applier(schedule).run()[1:]


class _Applier:
    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self.nest = LoopNest(
            subgraph_name=schedule.subgraph.name,
            loops=[Loop(a.name, a.extent, is_reduction=a.is_reduction)
                   for a in schedule.subgraph.axes],
        )
        #: Index of the primitive being applied — FSP resolution must only
        #: see strictly earlier steps (Ansor traces are causal).
        self.step = 0

    def run(self) -> list[LoopNest]:
        """The initial nest, then the nest after each step (loops are
        frozen, so a shallow copy per step is a faithful snapshot)."""
        snapshots = [replace(self.nest, loops=list(self.nest.loops))]
        for index, prim in enumerate(self.schedule.primitives):
            self.step = index
            if self.nest.inlined:
                raise ScheduleError(f"step {index}: primitive after compute-inline")
            try:
                getattr(self, f"_apply_{prim.kind.value.lower()}")(prim)
            except ScheduleError:
                raise
            except (KeyError, ValueError, IndexError) as exc:
                raise ScheduleError(f"step {index}: {exc}") from exc
            snapshots.append(replace(self.nest, loops=list(self.nest.loops)))
        return snapshots

    def _index(self, axis: str) -> int:
        if axis not in self.nest.names:
            raise ScheduleError(f"axis {axis!r} is not live in {self.nest.names}")
        return self.nest.names.index(axis)

    def _split(self, axis: str, extent: int, factors: tuple[int, ...]) -> None:
        idx = self._index(axis)
        old = self.nest.loops[idx]
        if old.extent != extent:
            raise ScheduleError(
                f"split of {axis!r} carries extent {extent} but loop extent is {old.extent}"
            )
        if not factors or any((not isinstance(f, int)) or f < 1 for f in factors):
            raise ScheduleError(f"split of {axis!r} has invalid factors {factors}")
        parts = split_parts(extent, factors)
        names = split_names(axis, len(parts))
        self.nest.loops[idx : idx + 1] = [
            Loop(n, e, is_reduction=old.is_reduction) for n, e in zip(names, parts)
        ]

    def _apply_sp(self, prim: Primitive) -> None:
        extent, *factors = prim.ints
        self._split(prim.axes[0], extent, tuple(factors))

    def _apply_fsp(self, prim: Primitive) -> None:
        (axis,) = prim.axes
        extent, src_step = prim.ints
        if not 0 <= src_step < len(self.schedule.primitives):
            raise ScheduleError(f"follow-split of {axis!r} references missing step {src_step}")
        if src_step >= self.step:
            raise ScheduleError(
                f"follow-split of {axis!r} references step {src_step}, which is not "
                f"strictly earlier than step {self.step}"
            )
        src = self.schedule.primitives[src_step]
        if src.kind is not PrimitiveKind.SP:
            raise ScheduleError(f"follow-split of {axis!r} references non-SP step {src_step}")
        self._split(axis, extent, tuple(src.ints[1:]))

    def _apply_re(self, prim: Primitive) -> None:
        if sorted(prim.axes) != sorted(self.nest.names):
            raise ScheduleError(
                f"reorder {list(prim.axes)} is not a permutation of {self.nest.names}"
            )
        by_name = {l.name: l for l in self.nest.loops}
        self.nest.loops = [by_name[n] for n in prim.axes]

    def _apply_fu(self, prim: Primitive) -> None:
        if len(prim.axes) < 2:
            raise ScheduleError(f"fuse needs >=2 axes, got {list(prim.axes)}")
        indices = [self._index(a) for a in prim.axes]
        if indices != list(range(indices[0], indices[0] + len(indices))):
            raise ScheduleError(f"fuse axes {list(prim.axes)} are not adjacent in {self.nest.names}")
        merged = self.nest.loops[indices[0] : indices[-1] + 1]
        self.nest.loops[indices[0] : indices[-1] + 1] = [Loop(
            fused_name(prim.axes),
            math.prod(l.extent for l in merged),
            is_reduction=any(l.is_reduction for l in merged),
        )]

    def _apply_an(self, prim: Primitive) -> None:
        (axis,) = prim.axes
        idx = self._index(axis)
        loop = self.nest.loops[idx]
        if prim.attr not in ANNOTATIONS:
            raise ScheduleError(f"unknown annotation {prim.attr!r} on {axis!r}")
        if loop.kind is not LoopKind.SERIAL:
            raise ScheduleError(f"axis {axis!r} already annotated as {loop.kind.value}")
        if prim.attr.startswith(GPU_BIND_PREFIX):
            if self.schedule.target != "gpu":
                raise ScheduleError(f"GPU bind {prim.attr!r} under target {self.schedule.target!r}")
            tag = prim.attr[len(GPU_BIND_PREFIX) :]
            if any(l.thread_tag == tag for l in self.nest.loops):
                raise ScheduleError(f"thread tag {tag!r} bound twice")
            self.nest.loops[idx] = replace(loop, kind=LoopKind.BOUND, thread_tag=tag)
        else:
            self.nest.loops[idx] = replace(loop, kind=ANNOTATION_KINDS[prim.attr])

    def _apply_pr(self, prim: Primitive) -> None:
        (axis,) = prim.axes
        idx = self._index(axis)
        if prim.attr not in PRAGMAS:
            raise ScheduleError(f"unknown pragma {prim.attr!r} on {axis!r}")
        (value,) = prim.ints
        loop = self.nest.loops[idx]
        self.nest.loops[idx] = replace(loop, pragmas=(*loop.pragmas, (prim.attr, value)))

    def _apply_ca(self, prim: Primitive) -> None:
        self._index(prim.axes[0])
        self.nest.compute_at_axis = prim.axes[0]

    def _apply_chw(self, prim: Primitive) -> None:
        self.nest.cache_write = True

    def _apply_rf(self, prim: Primitive) -> None:
        (axis,) = prim.axes
        idx = self._index(axis)
        if not self.nest.loops[idx].is_reduction:
            raise ScheduleError(f"rfactor of non-reduction axis {axis!r}")
        self.nest.loops[idx] = replace(self.nest.loops[idx], rfactored=True)

    def _apply_ci(self, prim: Primitive) -> None:
        if self.nest.cache_write or self.nest.compute_at_axis or self.nest.compute_root:
            raise ScheduleError("compute-inline conflicts with CHW/CA/CP on the same stage")
        if any(l.rfactored for l in self.nest.loops):
            raise ScheduleError("compute-inline conflicts with rfactor")
        self.nest.inlined = True

    def _apply_cp(self, prim: Primitive) -> None:
        self.nest.compute_root = True
