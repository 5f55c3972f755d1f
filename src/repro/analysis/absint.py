"""Abstract interpretation: the one semantics of primitive sequences.

Every consumer of a schedule primitive sequence — the verifier, the
sampler's fail-closed gate, the dataset build, ``Schedule.apply()`` and
the draft-then-verify scorer — goes through the :class:`Interpreter`
here.  Each primitive kind has exactly one transfer function: it checks
the step's rules, reporting every violation under its diagnostic code
(``repro.analysis.diagnostics``), and updates the loop nest.  So
"valid" and "what the schedule does" cannot drift apart: a sequence
without error diagnostics is exactly a sequence that interprets, and
``profile(...)`` *is* ``Schedule.apply()``.

The interpreted state is the loop nest itself: an ordered list of
``repro.tensorir.loops.Loop`` values (outermost first) whose extents are
the padded trip counts, plus the stage flags of a ``LoopNest``.  Axis
names move through ``UNDEFINED -> LIVE -> CONSUMED``: subgraph axes
start live; SP/FSP and FU consume their inputs and define fresh axes;
every other primitive may only reference live axes.  Bound GPU thread
tags and the stage flags persist for the whole sequence.

Consumers:

* :func:`profile` — fail-fast interpretation into the ``LoopNest``
  (raises :class:`AbsIntError`, a ``ScheduleError``, on the first error).
* ``repro.analysis.verifier`` — collect-all interpretation: every
  diagnostic of a sequence, including the W301–W306 smells.
* :func:`draft_scores` — Pruner-style draft score: the nest is costed on
  the target's *reference* ``simhw`` platform, no TLP model involved.
  ``CandidateScorer.propose_topk(draft_keep=...)`` uses it to run
  ``TLPModel.predict`` on the top slice only.
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


class Interpreter:
    """The semantics of primitive sequences against one subgraph and target.

    Every primitive kind has one transfer function (``_visit_<kind>``) that
    checks the step's rules — E1xx structural, E2xx liveness/dataflow,
    W301–W303 smells — and updates the loop nest.  A run has one of two
    modes:

    * **fail-fast** (:meth:`profile`): the first error diagnostic raises
      :class:`AbsIntError`; otherwise the run yields the ``LoopNest``.
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
            Loop(a.name, a.extent, is_reduction=a.is_reduction) for a in subgraph.axes
        )
        self._initial_axes = dict.fromkeys(a.name for a in subgraph.axes)
        self._flops_per_point = float(subgraph.flops_per_point)
        self._pad_limit = 1.0 + config.pad_allowance
        self._smell_bars: tuple[float, int, int] | None = None
        self._split_memo: dict = {}

    # -- runs ---------------------------------------------------------------

    def profile(self, primitives: Sequence[Primitive]) -> LoopNest:
        """Fail-fast: the sequence's loop nest, or :class:`AbsIntError`."""
        self._run(primitives, fail_fast=True)
        return LoopNest(
            subgraph_name=self.subgraph.name,
            loops=self.loops,
            cache_write=self.cache_write,
            inlined=self.inlined_at is not None,
            compute_at_axis=self.compute_at_axis,
            compute_root=self.compute_root,
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

    def _run(self, primitives: Sequence[Primitive], fail_fast: bool) -> None:
        """Interpret one sequence into the per-run state below."""
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

    def _consume(self, at: int, n: int = 1) -> list[Loop]:
        consumed = self.loops[at : at + n]
        del self.loops[at : at + n]
        for loop in consumed:
            self.axes[loop.name] = self.step
        return consumed

    def _define(self, at: int, loop: Loop) -> None:
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
        key = (prim.ints[0], factors, axis, loop.extent, loop.is_reduction)
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
        self, carried: int, factors: tuple[int, ...], loop: Loop
    ) -> tuple[tuple[tuple[str, str], ...], tuple[Loop, ...] | None]:
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
        return tuple(findings), tuple(
            Loop(name, part, is_reduction=loop.is_reduction)
            for name, part in zip(split_names(axis, len(parts)), parts)
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
        extent = math.prod(l.extent for l in merged)
        is_reduction = any(l.is_reduction for l in merged)
        self._define(at, Loop(fused_name(named), extent, is_reduction=is_reduction))

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


def _primitives_of(sequence: "Sequence[Primitive] | object") -> tuple[Primitive, ...]:
    prims = getattr(sequence, "primitives", sequence)
    return tuple(prims)


def profile(
    subgraph: Subgraph, sequence: "Sequence[Primitive] | object", target: str = "cpu"
) -> LoopNest:
    """Interpret one sequence (a ``Schedule`` or primitive tuple) into its
    loop nest, raising :class:`AbsIntError` on its first error diagnostic."""
    return Interpreter(subgraph, target).profile(_primitives_of(sequence))


def draft_scores(
    subgraph: Subgraph,
    sequences: Sequence["LoopNest | Sequence[Primitive] | object"],
    target: str = "cpu",
) -> np.ndarray:
    """Pruner-style static draft scores, higher = better (float32 ``[N]``).

    Costs each nest on the target's reference platform with the
    analytical ``simhw`` model — no quirk term, no learned model — and
    normalizes to ``min_latency / latency`` like the TLP training label.
    Items that already are nests (e.g. the sampler gate's) are not
    interpreted again.
    """
    from repro.simhw.measure import latency_model  # local: keep verifier import light

    if not sequences:
        return np.empty(0, dtype=np.float32)
    interp = Interpreter(subgraph, target)
    nests = [
        s if isinstance(s, LoopNest) else interp.profile(_primitives_of(s))
        for s in sequences
    ]
    feats = NestFeatures.from_nests(subgraph, nests)
    seconds, _ = latency_model(target).latency_seconds(feats, reference_platform(target))
    floor = np.maximum(seconds, np.float32(1e-30))
    return (floor.min() / floor).astype(np.float32)


__all__ = [
    "AbsIntError",
    "Interpreter",
    "VerifierConfig",
    "draft_scores",
    "profile",
    "reference_llc_kb",
    "reference_min_cores",
    "reference_platform",
    "reference_unroll_budget",
    "working_set_bytes",
]
