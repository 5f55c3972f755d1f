"""Abstract interpretation: the one semantics of primitive sequences.

Every consumer of a schedule primitive sequence — the verifier, the
sampler's fail-closed gate, the dataset build, ``Schedule.apply()`` and
the draft-then-verify scorer — goes through the :class:`Interpreter`
here.  Each primitive kind has exactly one transfer function: it checks
the step's rules, reporting every violation under its diagnostic code
(``repro.analysis.diagnostics``), and updates the abstract loop nest.  So
"valid" and "what the schedule does" cannot drift apart: a sequence
without error diagnostics is exactly a sequence that interprets, and
``profile(...).to_nest()`` *is* ``Schedule.apply()``.

The abstract domain is an ordered list of loops whose trip counts are
:class:`Interval` values.  Every interval's upper bound is the padded
extent of the loop, while the lower bound tracks the minimum number of
*useful* iterations once split padding is accounted for — a padded split
leaves its first inner level with a ragged final tile, so that loop's
interval widens while every trip count stays exact.  Axis names move
through ``UNDEFINED -> LIVE -> CONSUMED``: subgraph axes start live;
SP/FSP and FU consume their inputs and define fresh axes; every other
primitive may only reference live axes.  Bound GPU thread tags and the
stage flags persist for the whole sequence.

Consumers:

* :func:`profile` — fail-fast interpretation into a :class:`StaticProfile`
  (raises :class:`AbsIntError`, a ``ScheduleError``, on the first error).
* ``repro.analysis.verifier`` — collect-all interpretation: every
  diagnostic of a sequence, including the W301–W306 smells.
* :func:`profile_many` — fixed-width float32 static-feature plane
  (``STATIC_FEATURE_NAMES`` columns) for screening models.
* :func:`draft_scores` — Pruner-style draft score: the static profile is
  costed on the target's *reference* ``simhw`` platform, no TLP model
  involved.  ``CandidateScorer.propose_topk(draft_keep=...)`` uses it to
  run ``TLPModel.predict`` on the top slice only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.analysis.diagnostics import Diagnostic, make
from repro.simhw.cache import (
    BYTES_PER_POINT,
    NestFeatures,
    POW2_CONFLICT_THRESHOLD,
    REUSE_EXPONENT,
)
from repro.simhw.platform import ALL_PLATFORMS, Platform
from repro.tensorir.loops import ANNOTATION_KINDS, Loop, LoopKind, LoopNest
from repro.tensorir.primitives import (
    ANNOTATIONS,
    ARITY,
    GPU_BIND_PREFIX,
    KIND_BY_VALUE,
    PRAGMAS,
    Primitive,
    PrimitiveKind,
    fused_name,
    split_names,
)
from repro.tensorir.schedule import PAD_ALLOWANCE, ScheduleError, split_parts
from repro.tensorir.subgraph import Subgraph


@dataclass(frozen=True)
class VerifierConfig:
    """Tunable thresholds for the structural rules and smell detectors."""

    #: Max allowed ratio of padded iterations to the true extent for one
    #: split (DESIGN.md §6: bounded padding keeps latency spreads sane).
    #: Defaults to the same constant the sampler's by-construction check
    #: uses, so the two cannot drift.
    pad_allowance: float = PAD_ALLOWANCE
    #: Middle-loop extents >= this that are powers of two trigger W301.
    #: The default is ``repro.simhw.cache.POW2_CONFLICT_THRESHOLD`` — one
    #: shared constant, so the static smell marks exactly what the
    #: simulated hardware punishes.
    pow2_conflict_threshold: int = POW2_CONFLICT_THRESHOLD
    #: ``auto_unroll_max_step`` values above this trigger W302.
    max_auto_unroll: int = 512
    #: Thresholds for W304/W305/W306; ``None`` derives each from the
    #: worst platform of the target (``reference_llc_kb`` and friends).
    footprint_llc_kb: float | None = None
    parallel_min_extent: int | None = None
    unroll_body_budget: int | None = None


class AbsIntError(ScheduleError):
    """Fail-fast interpretation met an error diagnostic.

    A ``ScheduleError``, so ``Schedule.apply()`` raises it unchanged.
    ``diagnostic`` is the error at primitive ``step``; ``diagnostics``
    adds the warnings the run emitted before it.
    """

    def __init__(self, diagnostic: Diagnostic, warnings: Sequence[Diagnostic] = ()):
        super().__init__(f"step {diagnostic.primitive_index}: {diagnostic.message}")
        self.diagnostic = diagnostic
        self.diagnostics = [*warnings, diagnostic]
        self.step = diagnostic.primitive_index


@dataclass(frozen=True)
class Interval:
    """An integer interval ``[lo, hi]`` of useful-iteration counts.

    ``hi`` is the loop's (padded) trip count — exact, since padded splits
    run all iterations and mask the padding.  ``lo`` is the minimum
    number of useful iterations any instance of the loop performs; the
    two coincide unless some enclosing split padded the axis.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def __mul__(self, other: "Interval") -> "Interval":
        return Interval(self.lo * other.lo, self.hi * other.hi)

    def __str__(self) -> str:
        return str(self.hi) if self.exact else f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class AbstractLoop:
    """One loop of the abstract nest (outermost-first order)."""

    name: str
    trip: Interval
    is_reduction: bool = False
    kind: LoopKind = LoopKind.SERIAL
    thread_tag: str = ""
    pragmas: tuple[tuple[str, int], ...] = ()
    rfactored: bool = False

    @property
    def extent(self) -> int:
        """The concrete (padded) trip count of the loop."""
        return self.trip.hi


#: Columns of the :func:`profile_many` static-feature plane, in order.
STATIC_FEATURE_NAMES: tuple[str, ...] = (
    "depth",
    "log2_padded_points",
    "log2_domain_points",
    "padding_ratio",
    "useful_fraction",        # prod(trip.lo) / prod(trip.hi) — interval mass
    "flops_per_point",
    "n_steps",
    "parallel_extent",
    "parallel_depth",         # outermost parallel loop's level (depth if none)
    "vector_extent",
    "vector_at_innermost",
    "unrolled_extent",
    "unroll_step",            # max auto_unroll_max_step pragma
    "grid_blocks",
    "threads_per_block",
    "pow2_conflicts",
    "log2_outer_tile_bytes",  # working set of one outermost-loop iteration
    "log2_tile_points_l0",    # deepest suffix tile per reference cache level
    "log2_tile_points_l1",
    "log2_tile_points_l2",
    "cache_write",
    "compute_at",
    "compute_root",
    "inlined",
    "rfactored",
)


def reference_platform(target: str) -> Platform:
    """The canonical ``simhw`` platform for a target (first of its kind)."""
    for p in ALL_PLATFORMS:
        if p.target == target:
            return p
    raise ValueError(f"no simhw platform with target {target!r}")


def reference_llc_kb(target: str) -> float:
    """Smallest last-level cache among the target's platforms (W304 bar)."""
    return min(p.cache_kb[-1] for p in ALL_PLATFORMS if p.target == target)


def reference_min_cores(target: str) -> int:
    """Smallest core/SM count among the target's platforms (W305 bar)."""
    return min(p.cores for p in ALL_PLATFORMS if p.target == target)


def reference_unroll_budget(target: str) -> int:
    """Smallest icache unroll cap among the target's platforms (W306 bar)."""
    return min(p.unroll_cap for p in ALL_PLATFORMS if p.target == target)


def working_set_bytes(points: float) -> float:
    """Bytes a tile of ``points`` keeps resident — the ``simhw.cache``
    reuse model (``BYTES_PER_POINT * points ** REUSE_EXPONENT``)."""
    return BYTES_PER_POINT * float(points) ** REUSE_EXPONENT


@dataclass(frozen=True)
class StaticProfile:
    """Everything :func:`profile` derives from a sequence without applying it."""

    subgraph_name: str
    target: str
    n_steps: int
    loops: tuple[AbstractLoop, ...]
    cache_write: bool
    inlined: bool
    compute_at_axis: str
    compute_root: bool
    domain_points: int
    flops_per_point: float
    #: (step index, axis name, abstract extent) per ``parallel`` annotation.
    parallel_facts: tuple[tuple[int, str, int], ...]
    #: (step index, axis name) per ``unroll`` annotation.
    unroll_facts: tuple[tuple[int, str], ...]
    #: Per-step nest snapshots ((name, extent), ...) when profiled with
    #: ``trace=True`` — the differential hook against a reference applier.
    trace: tuple[tuple[tuple[str, int], ...], ...] | None = None

    @property
    def depth(self) -> int:
        return len(self.loops)

    def extents(self) -> tuple[int, ...]:
        return tuple(l.extent for l in self.loops)

    def padded_points(self) -> int:
        return math.prod(l.extent for l in self.loops)

    def useful_points(self) -> int:
        """Lower bound on useful iterations (product of interval floors)."""
        return math.prod(l.trip.lo for l in self.loops)

    def padding_ratio(self) -> float:
        if self.domain_points <= 0:
            return math.inf
        return self.padded_points() / self.domain_points

    def to_nest(self) -> LoopNest:
        """Concretize the abstract nest: the loop nest ``Schedule.apply()``
        returns."""
        return LoopNest(
            subgraph_name=self.subgraph_name,
            loops=[
                Loop(
                    l.name,
                    l.extent,
                    is_reduction=l.is_reduction,
                    kind=l.kind,
                    thread_tag=l.thread_tag,
                    pragmas=l.pragmas,
                    rfactored=l.rfactored,
                )
                for l in self.loops
            ],
            cache_write=self.cache_write,
            inlined=self.inlined,
            compute_at_axis=self.compute_at_axis,
            compute_root=self.compute_root,
        )

    # -- derived geometry -------------------------------------------------

    def grid_geometry(self) -> tuple[int, int]:
        """(grid blocks, threads per block) from the ``bind.*`` tags."""
        grid = threads = 1
        for l in self.loops:
            if not l.thread_tag:
                continue
            if l.thread_tag.startswith("blockIdx"):
                grid *= l.extent
            else:  # threadIdx.* and vthread both occupy the block
                threads *= l.extent
        return grid, threads

    def pow2_conflicts(self) -> int:
        """Large power-of-two *middle* loop extents (the W301/simhw smell)."""
        count = 0
        for l in self.loops[1:-1]:
            e = l.extent
            if e >= POW2_CONFLICT_THRESHOLD and (e & (e - 1)) == 0:
                count += 1
        return count

    def outer_tile_points(self) -> int:
        """Points one iteration of the outermost loop touches."""
        if not self.loops:
            return 1
        return math.prod(l.extent for l in self.loops[1:])

    def tile_points_per_level(self, cache_kb: Sequence[float]) -> tuple[float, ...]:
        """Deepest loop-suffix tile (points) fitting each cache level,
        the suffix-product walk of ``simhw.cache.tile_points``."""
        suffix: list[float] = []
        acc = 1.0
        for l in reversed(self.loops):
            acc *= l.extent
            suffix.append(acc)
        out: list[float] = []
        for kb in cache_kb:
            capacity_points = (kb * 1024.0 / BYTES_PER_POINT) ** (1.0 / REUSE_EXPONENT)
            best = 1.0
            for t in suffix:  # ascending toward the outermost suffix
                if t <= capacity_points:
                    best = t
                else:
                    break
            out.append(max(best, 1.0))
        return tuple(out)

    def unroll_step(self) -> int:
        step = 0
        for l in self.loops:
            for name, value in l.pragmas:
                if name == "auto_unroll_max_step":
                    step = max(step, int(value))
        return step

    def features(self) -> np.ndarray:
        """The fixed-width float32 feature row (``STATIC_FEATURE_NAMES``)."""
        padded = float(self.padded_points())
        parallel_extent = 1.0
        parallel_depth = float(self.depth)
        vector_extent = 1.0
        unrolled_extent = 1.0
        for level, l in enumerate(self.loops):
            if l.kind is LoopKind.PARALLEL:
                parallel_extent *= l.extent
                parallel_depth = min(parallel_depth, float(level))
            elif l.kind is LoopKind.VECTORIZED:
                vector_extent *= l.extent
            elif l.kind is LoopKind.UNROLLED:
                unrolled_extent *= l.extent
        grid, threads = self.grid_geometry()
        ref = reference_platform(self.target)
        tiles = self.tile_points_per_level(ref.cache_kb)
        tile_cols = [math.log2(tiles[i]) if i < len(tiles) else 0.0 for i in range(3)]
        row = (
            float(self.depth),
            math.log2(max(padded, 1.0)),
            math.log2(max(float(self.domain_points), 1.0)),
            self.padding_ratio(),
            self.useful_points() / max(padded, 1.0),
            self.flops_per_point,
            float(self.n_steps),
            parallel_extent,
            parallel_depth,
            vector_extent,
            1.0 if self.loops and self.loops[-1].kind is LoopKind.VECTORIZED else 0.0,
            unrolled_extent,
            float(self.unroll_step()),
            float(grid),
            float(threads),
            float(self.pow2_conflicts()),
            math.log2(max(working_set_bytes(self.outer_tile_points()), 1.0)),
            *tile_cols,
            1.0 if self.cache_write else 0.0,
            1.0 if self.compute_at_axis else 0.0,
            1.0 if self.compute_root else 0.0,
            1.0 if self.inlined else 0.0,
            1.0 if any(l.rfactored for l in self.loops) else 0.0,
        )
        return np.asarray(row, dtype=np.float32)


class Interpreter:
    """The semantics of primitive sequences against one subgraph and target.

    Every primitive kind has one transfer function (``_visit_<kind>``) that
    checks the step's rules — E1xx structural, E2xx liveness/dataflow,
    W301–W303 smells — and updates the abstract nest.  A run has one of
    two modes:

    * **fail-fast** (:meth:`profile`): the first error diagnostic raises
      :class:`AbsIntError`; otherwise the run yields a :class:`StaticProfile`.
    * **collect** (:meth:`diagnose`): errors are recorded and the run
      recovers best-effort, so one corrupt step does not mask later ones.
      A step that fails a check leaves the nest as it was, except that an
      E108 extent mismatch splits the tracked extent and an E203 name
      collision skips only the colliding definition; a primitive after
      compute-inline (E206) ends the run.  A sequence without errors
      also gets the W304–W306 smells of its final nest.

    The set-up (initial nest, thresholds) happens once per instance, the
    outcome of each distinct split is worked out once per instance, and a
    run resets only the per-sequence state — so reusing one instance over
    a batch is much cheaper than constructing one per sequence.  The split
    memo grows with the distinct splits an instance sees; instances live
    for one batch or one verifier.
    """

    def __init__(
        self, subgraph: Subgraph, target: str = "cpu", config: VerifierConfig | None = None
    ):
        config = config or VerifierConfig()
        self.subgraph = subgraph
        self.target = target
        self.config = config
        self._initial = tuple(
            AbstractLoop(a.name, Interval(a.extent, a.extent), a.is_reduction)
            for a in subgraph.axes
        )
        self._initial_axes = dict.fromkeys(a.name for a in subgraph.axes)
        self._domain_points = subgraph.total_points
        self._flops_per_point = float(subgraph.flops_per_point)
        self._pad_limit = 1.0 + config.pad_allowance
        self._smell_bars: tuple[float, int, int] | None = None
        self._split_memo: dict = {}

    # -- runs ---------------------------------------------------------------

    def profile(self, primitives: Sequence[Primitive], *, trace: bool = False) -> StaticProfile:
        """Fail-fast: the sequence's static profile, or :class:`AbsIntError`."""
        snapshots = self._run(primitives, fail_fast=True, trace=trace)
        return StaticProfile(
            subgraph_name=self.subgraph.name,
            target=self.target,
            n_steps=len(self.primitives),
            loops=tuple(self.loops),
            cache_write=self.cache_write,
            inlined=self.inlined_at is not None,
            compute_at_axis=self.compute_at_axis,
            compute_root=self.compute_root,
            domain_points=self._domain_points,
            flops_per_point=self._flops_per_point,
            parallel_facts=tuple(self.parallel_facts),
            unroll_facts=tuple(self.unroll_facts),
            trace=snapshots,
        )

    def diagnose(
        self, primitives: Sequence[Primitive], *, stop_on_error: bool = False
    ) -> list[Diagnostic]:
        """Every diagnostic of one sequence, in emission order.

        With ``stop_on_error`` the run is fail-fast: it returns the
        warnings before the first error plus that error, and skips the
        W304–W306 smells.
        """
        try:
            self._run(primitives, fail_fast=stop_on_error)
        except AbsIntError as err:
            return err.diagnostics
        if not (self.failed or stop_on_error):
            self._smells()
        return self.diags

    def _run(
        self, primitives: Sequence[Primitive], fail_fast: bool, trace: bool = False
    ) -> tuple[tuple[tuple[str, int], ...], ...] | None:
        """Interpret one sequence into the per-run state below; returns the
        per-step ``(name, extent)`` snapshots when tracing."""
        self.primitives = primitives = tuple(primitives)
        self.fail_fast = fail_fast
        self.failed = False
        self.diags: list[Diagnostic] = []
        self.loops = list(self._initial)  # the live loops, outermost first
        #: Every axis ever defined -> the step that consumed it (None: live).
        self.axes: dict[str, int | None] = dict(self._initial_axes)
        self.bound_tags: set[str] = set()
        self.cache_write = self.compute_root = self.rfactored = False
        self.compute_at_axis = ""
        self.inlined_at: int | None = None
        self.parallel_facts: list[tuple[int, str, int]] = []
        self.unroll_facts: list[tuple[int, str]] = []
        snapshots = []
        for index, prim in enumerate(primitives):
            self.step = index
            kind = KIND_BY_VALUE.get(prim.kind)
            if kind is None:
                self._emit("E101", f"unknown primitive kind {prim.kind!r}")
            elif self.inlined_at is not None:
                self._emit(
                    "E206", f"{kind.value} after compute-inline at step {self.inlined_at}"
                )
                break
            elif self._arity_ok(kind, prim):
                _VISITORS[kind](self, prim)
            if trace:
                snapshots.append(tuple((l.name, l.extent) for l in self.loops))
        return tuple(snapshots) if trace else None

    # -- plumbing -----------------------------------------------------------

    def _emit(self, code: str, message: str, axis: str = "") -> None:
        diag = make(code, self.step, message, axis)
        if diag.is_error:
            if self.fail_fast:
                raise AbsIntError(diag, self.diags)
            self.failed = True
        self.diags.append(diag)

    def _arity_ok(self, kind: PrimitiveKind, prim: Primitive) -> bool:
        n_axes, min_ints, max_ints, needs_attr = ARITY[kind]
        ok = True
        if n_axes is not None and len(prim.axes) != n_axes:
            self._emit("E101", f"{kind.value} expects {n_axes} axis, got {len(prim.axes)}")
            ok = False
        if len(prim.ints) < min_ints or (max_ints is not None and len(prim.ints) > max_ints):
            self._emit("E101", f"{kind.value} has bad numeric arity {list(prim.ints)}")
            ok = False
        if needs_attr and not prim.attr:
            self._emit("E101", f"{kind.value} requires an attr token")
            ok = False
        return ok

    def _live(self, axis: str) -> int | None:
        """Position of the live loop ``axis``, or ``None`` after an E201/E202."""
        if axis not in self.axes:
            self._emit("E201", f"axis {axis!r} is not live: it was never defined", axis)
        elif self.axes[axis] is not None:
            self._emit(
                "E202", f"axis {axis!r} is not live: step {self.axes[axis]} consumed it", axis
            )
        else:
            return [l.name for l in self.loops].index(axis)
        return None

    def _consume(self, at: int, n: int = 1) -> list[AbstractLoop]:
        consumed = self.loops[at : at + n]
        del self.loops[at : at + n]
        for loop in consumed:
            self.axes[loop.name] = self.step
        return consumed

    def _define(self, at: int, loop: AbstractLoop) -> None:
        if loop.name in self.axes:
            self._emit("E203", f"axis {loop.name!r} defined twice", loop.name)
            return
        self.axes[loop.name] = None
        self.loops.insert(at, loop)

    # -- split family -------------------------------------------------------

    def _split(self, prim: Primitive, factors: tuple[int, ...]) -> None:
        (axis,) = prim.axes
        at = self._live(axis)
        if at is None:
            return
        # What a split does depends only on these, so it is worked out once
        # per instance — sampled batches repeat the same splits constantly.
        loop = self.loops[at]
        key = (prim.ints[0], factors, axis, loop.trip.lo, loop.trip.hi, loop.is_reduction)
        outcome = self._split_memo.get(key)
        if outcome is None:
            outcome = self._split_memo[key] = self._split_outcome(prim.ints[0], factors, loop)
        findings, parts = outcome
        for code, message in findings:
            self._emit(code, message, axis)
        if parts is None:
            return
        self._consume(at)
        for offset, part in enumerate(parts):
            self._define(at + offset, part)

    def _split_outcome(
        self, carried: int, factors: tuple[int, ...], loop: AbstractLoop
    ) -> tuple[tuple[tuple[str, str], ...], tuple[AbstractLoop, ...] | None]:
        """The findings of splitting a live loop, and the loops it becomes
        (``None`` when the split is rejected).  An E108 extent mismatch
        does not reject: the tracked extent is split."""
        findings = []
        axis, extent = loop.name, loop.extent
        if carried != extent:
            findings.append((
                "E108", f"split of {axis!r} carries extent {carried}, tracked extent is {extent}"
            ))
        parts = split_parts(extent, factors)
        padded = math.prod(parts)
        if padded > extent * self._pad_limit:
            findings.append((
                "E103",
                f"split of {axis!r} pads {extent} to {padded}, beyond the "
                f"{self.config.pad_allowance:.0%} allowance",
            ))
            return tuple(findings), None
        for f in factors:
            if f == 1 or f == extent:
                findings.append(("W303", f"degenerate split factor {f} on {axis!r}"))
        for f in factors[:-1]:
            if f >= self.config.pow2_conflict_threshold and (f & (f - 1)) == 0:
                findings.append((
                    "W301",
                    f"middle-loop extent {f} on {axis!r} is a large power of two "
                    "(cache-set / bank conflict smell)",
                ))
        trips = _split_intervals(loop.trip, parts, padded)
        return tuple(findings), tuple(
            AbstractLoop(name, trip, loop.is_reduction)
            for name, trip in zip(split_names(axis, len(parts)), trips)
        )

    def _visit_sp(self, prim: Primitive) -> None:
        factors = tuple(prim.ints[1:])
        bad = [f for f in factors if not isinstance(f, int) or f < 1]
        if bad:
            self._emit(
                "E102", f"split of {prim.axes[0]!r} has non-positive factors {bad}", prim.axes[0]
            )
            return
        self._split(prim, factors)

    def _visit_fsp(self, prim: Primitive) -> None:
        (axis,) = prim.axes
        src_step = prim.ints[1]
        if not 0 <= src_step < len(self.primitives):
            self._emit("E107", f"follow-split references missing step {src_step}", axis)
            return
        if src_step >= self.step:
            # Ansor traces are strictly causal: a follow-split can only
            # reuse the factors of a step that already executed.
            self._emit(
                "E107",
                f"follow-split references step {src_step}, which is not strictly "
                f"earlier than step {self.step}",
                axis,
            )
            return
        src = self.primitives[src_step]
        if src.kind is not PrimitiveKind.SP or len(src.ints) < 2:
            self._emit(
                "E107", f"follow-split references step {src_step} which is not a split", axis
            )
            return
        factors = tuple(src.ints[1:])
        if any(not isinstance(f, int) or f < 1 for f in factors):
            self._emit("E102", f"followed split has non-positive factors {factors}", axis)
            return
        self._split(prim, factors)

    # -- order primitives ---------------------------------------------------

    def _visit_re(self, prim: Primitive) -> None:
        named = list(prim.axes)
        # dict.fromkeys, not set(): diagnostic emission order must not
        # depend on string hashing (bit-reproducibility, lint rule SC105).
        for axis in dict.fromkeys(named):
            self._live(axis)
        live = [l.name for l in self.loops]
        if sorted(named) != sorted(live):
            self._emit("E104", f"reorder {named} is not a permutation of the live order {live}")
            return
        by_name = {l.name: l for l in self.loops}
        self.loops = [by_name[n] for n in named]

    def _visit_fu(self, prim: Primitive) -> None:
        named = list(prim.axes)
        if len(named) < 2 or len(set(named)) != len(named):
            self._emit("E109", f"fuse needs >=2 distinct axes, got {named}")
            return
        positions = [self._live(a) for a in named]
        if None in positions:
            return
        at = positions[0]
        if positions != list(range(at, at + len(positions))):
            live = [l.name for l in self.loops]
            self._emit("E109", f"fuse axes {named} are not adjacent in {live}")
            return
        merged = self._consume(at, len(named))
        trip = merged[0].trip
        for loop in merged[1:]:
            trip = trip * loop.trip
        is_reduction = any(l.is_reduction for l in merged)
        self._define(at, AbstractLoop(fused_name(named), trip, is_reduction))

    # -- annotation primitives ----------------------------------------------

    def _visit_an(self, prim: Primitive) -> None:
        (axis,) = prim.axes
        if prim.attr not in ANNOTATIONS:
            self._emit("E105", f"unknown annotation {prim.attr!r}", axis)
            return
        is_bind = prim.attr.startswith(GPU_BIND_PREFIX)
        if is_bind and self.target != "gpu":
            self._emit("E106", f"GPU bind {prim.attr!r} under target {self.target!r}", axis)
            return
        at = self._live(axis)
        if at is None:
            return
        loop = self.loops[at]
        if loop.kind is not LoopKind.SERIAL:
            self._emit("E205", f"axis {axis!r} already annotated as {loop.kind.value}", axis)
            return
        if is_bind:
            tag = prim.attr[len(GPU_BIND_PREFIX) :]
            if tag in self.bound_tags:
                self._emit("E205", f"thread tag {tag!r} bound twice", axis)
                return
            self.bound_tags.add(tag)
            self.loops[at] = replace(loop, kind=LoopKind.BOUND, thread_tag=tag)
            return
        self.loops[at] = replace(loop, kind=ANNOTATION_KINDS[prim.attr])
        if prim.attr == "parallel":
            self.parallel_facts.append((self.step, axis, loop.extent))
        elif prim.attr == "unroll":
            self.unroll_facts.append((self.step, axis))

    def _visit_pr(self, prim: Primitive) -> None:
        (axis,) = prim.axes
        if prim.attr not in PRAGMAS:
            self._emit("E105", f"unknown pragma {prim.attr!r}", axis)
            return
        at = self._live(axis)
        if at is None:
            return
        (value,) = prim.ints
        if prim.attr == "auto_unroll_max_step" and value > self.config.max_auto_unroll:
            self._emit(
                "W302",
                f"auto_unroll_max_step {value} exceeds cap {self.config.max_auto_unroll}",
                axis,
            )
        loop = self.loops[at]
        self.loops[at] = replace(loop, pragmas=(*loop.pragmas, (prim.attr, value)))

    # -- stage primitives ---------------------------------------------------

    def _visit_ca(self, prim: Primitive) -> None:
        if self._live(prim.axes[0]) is not None:
            self.compute_at_axis = prim.axes[0]

    def _visit_chw(self, prim: Primitive) -> None:
        self.cache_write = True

    def _visit_rf(self, prim: Primitive) -> None:
        (axis,) = prim.axes
        at = self._live(axis)
        if at is None:
            return
        if not self.loops[at].is_reduction:
            self._emit("E204", f"rfactor of non-reduction axis {axis!r}", axis)
            return
        self.loops[at] = replace(self.loops[at], rfactored=True)
        self.rfactored = True

    def _visit_ci(self, prim: Primitive) -> None:
        conflicts = [
            name
            for name, flag in (
                ("CHW", self.cache_write),
                ("CA", bool(self.compute_at_axis)),
                ("CP", self.compute_root),
                ("RF", self.rfactored),
            )
            if flag
        ]
        if conflicts:
            self._emit("E206", f"compute-inline conflicts with {'/'.join(conflicts)}")
            return
        self.inlined_at = self.step

    def _visit_cp(self, prim: Primitive) -> None:
        self.compute_root = True

    # -- whole-nest smells --------------------------------------------------

    def _smells(self) -> None:
        """W304–W306 of an error-free run, from its final nest.

        Thresholds default to the *worst* platform of the target — the
        smallest last-level cache, core count, and unroll cap — so a
        warning means "smells on at least one simulated device".
        """
        if self._smell_bars is None:
            cfg = self.config
            self._smell_bars = (
                reference_llc_kb(self.target) if cfg.footprint_llc_kb is None
                else cfg.footprint_llc_kb,
                reference_min_cores(self.target) if cfg.parallel_min_extent is None
                else cfg.parallel_min_extent,
                reference_unroll_budget(self.target) if cfg.unroll_body_budget is None
                else cfg.unroll_body_budget,
            )
        llc_kb, min_parallel_extent, unroll_body_budget = self._smell_bars
        target, loops, diags = self.target, self.loops, self.diags

        # W304: one outermost-loop iteration's working set overflows the LLC.
        if loops and self.inlined_at is None:
            tile_bytes = working_set_bytes(math.prod(l.extent for l in loops[1:]))
            if tile_bytes > llc_kb * 1024.0:
                diags.append(make(
                    "W304",
                    -1,
                    f"static outer-tile working set {tile_bytes / 1024.0:.0f} KB "
                    f"exceeds the {llc_kb:.0f} KB last-level cache of the "
                    f"smallest {target} platform",
                ))

        # W305: parallel annotation on an axis too small to feed the cores.
        for step, axis, extent in self.parallel_facts:
            if extent < min_parallel_extent:
                diags.append(make(
                    "W305",
                    step,
                    f"parallel annotation on {axis!r} with abstract extent "
                    f"{extent}, below the minimum core count "
                    f"{min_parallel_extent} of the {target} platforms",
                    axis,
                ))

        # W306: unroll directive whose statically-bounded body blows the icache.
        names = [l.name for l in loops]
        for step, axis in self.unroll_facts:
            if axis not in names:
                continue  # annotated loop later split or fused away
            body_points = math.prod(l.extent for l in loops[names.index(axis):])
            body_instrs = body_points * max(self._flops_per_point, 1.0)
            if body_instrs > unroll_body_budget:
                diags.append(make(
                    "W306",
                    step,
                    f"unroll of {axis!r} replicates a statically-bounded body of "
                    f"~{body_instrs:.0f} instructions, beyond the {target} "
                    f"icache budget {unroll_body_budget}",
                    axis,
                ))


#: Transfer function per kind, resolved once.
_VISITORS = {
    kind: getattr(Interpreter, f"_visit_{kind.value.lower()}") for kind in PrimitiveKind
}


def _split_intervals(
    trip: Interval, parts: tuple[int, ...], padded: int
) -> tuple[Interval, ...]:
    """Trip intervals of the loops a split produces.

    Trip counts are exact (``hi == part``).  When the factors do not
    divide the extent, the last outer iteration covers only the remainder,
    so the first inner level's useful count drops — the remainder is
    attributed there and deeper levels stay exact.  Splitting an already
    widened interval keeps only the outermost bound tight (sound, coarse).
    """
    outer, *inner = parts
    if not trip.exact:
        # Splitting an already widened interval: trip counts stay exact,
        # the useful floors collapse to 1 (sound but coarse).
        return tuple(Interval(1, p) for p in parts)
    if padded == trip.hi or not inner:
        return tuple(Interval(p, p) for p in parts)
    inner_points = math.prod(inner)
    deeper = math.prod(inner[1:])  # 1 when the split has a single factor
    remainder = trip.hi - (outer - 1) * inner_points
    first_lo = min(inner[0], max(1, math.ceil(remainder / deeper)))
    return (
        Interval(outer, outer),
        Interval(first_lo, inner[0]),
        *(Interval(p, p) for p in inner[1:]),
    )


def _primitives_of(sequence: "Sequence[Primitive] | object") -> tuple[Primitive, ...]:
    prims = getattr(sequence, "primitives", sequence)
    return tuple(prims)


def profile(
    subgraph: Subgraph,
    sequence: "Sequence[Primitive] | object",
    target: str = "cpu",
    *,
    trace: bool = False,
) -> StaticProfile:
    """Abstractly interpret one sequence (a ``Schedule`` or primitive
    tuple), raising :class:`AbsIntError` on its first error diagnostic."""
    return Interpreter(subgraph, target).profile(_primitives_of(sequence), trace=trace)


def _profiles(
    subgraph: Subgraph,
    sequences: Sequence["StaticProfile | Sequence[Primitive] | object"],
    target: str,
) -> list[StaticProfile]:
    """Profiles of a batch; items that already are profiles pass through."""
    interp = Interpreter(subgraph, target)
    return [
        s if isinstance(s, StaticProfile) else interp.profile(_primitives_of(s))
        for s in sequences
    ]


def profile_many(
    subgraph: Subgraph,
    sequences: Sequence["StaticProfile | Sequence[Primitive] | object"],
    target: str = "cpu",
) -> np.ndarray:
    """Static-feature plane (float32 ``[N, len(STATIC_FEATURE_NAMES)]``)
    for a batch of already-valid sequences (or their profiles) against
    one subgraph."""
    profiles = _profiles(subgraph, sequences, target)
    plane = np.empty((len(profiles), len(STATIC_FEATURE_NAMES)), dtype=np.float32)
    for i, prof in enumerate(profiles):
        plane[i] = prof.features()
    return plane


def nest_features(
    subgraph: Subgraph, profiles: Sequence[StaticProfile]
) -> NestFeatures:
    """``simhw.cache.NestFeatures`` built from static profiles alone."""
    return NestFeatures.from_nests(subgraph, [p.to_nest() for p in profiles])


def draft_scores(
    subgraph: Subgraph,
    sequences: Sequence["StaticProfile | Sequence[Primitive] | object"],
    target: str = "cpu",
) -> np.ndarray:
    """Pruner-style static draft scores, higher = better (float32 ``[N]``).

    Costs each static profile on the target's reference platform with the
    analytical ``simhw`` model — no quirk term, no learned model — and
    normalizes to ``min_latency / latency`` like the TLP training label.
    Items that already are profiles (e.g. the sampler gate's) are not
    interpreted again.
    """
    from repro.simhw import cpu_model, gpu_model  # local: keep verifier import light

    if not sequences:
        return np.empty(0, dtype=np.float32)
    feats = nest_features(subgraph, _profiles(subgraph, sequences, target))
    model = gpu_model if target == "gpu" else cpu_model
    seconds, _ = model.latency_seconds(feats, reference_platform(target))
    floor = np.maximum(seconds, np.float32(1e-30))
    return (floor.min() / floor).astype(np.float32)


__all__ = [
    "AbsIntError",
    "AbstractLoop",
    "Interpreter",
    "Interval",
    "STATIC_FEATURE_NAMES",
    "StaticProfile",
    "VerifierConfig",
    "draft_scores",
    "nest_features",
    "profile",
    "profile_many",
    "reference_llc_kb",
    "reference_min_cores",
    "reference_platform",
    "reference_unroll_budget",
    "working_set_bytes",
]
