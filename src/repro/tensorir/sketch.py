"""Sketch configuration and generation.

A *sketch* (Ansor terminology) is the structural skeleton of a schedule —
how many tile levels each axis gets, whether a write-cache stage is added,
which loops are annotated — with the free parameters (split factors,
unroll steps) filled in by random sampling.  :class:`SketchGenerator`
composes the two and interprets every generated sequence fail-closed (an
invalid sequence is a bug, not a sample), handing the loop nests on.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.tensorir.loops import LoopNest
from repro.tensorir.schedule import Schedule
from repro.tensorir.subgraph import Subgraph

TARGETS = ("cpu", "gpu")


@dataclass(frozen=True)
class SketchConfig:
    """Structural parameters of sketch generation for one target."""

    target: str = "cpu"
    #: Inner split factors are capped at this (Ansor's max_innermost_factor).
    max_innermost_factor: int = 64
    #: Probability that one sampled factor is bumped off a divisor, padding
    #: the axis (bounded by the verifier's allowance; DESIGN.md §6).
    padding_prob: float = 0.05
    #: Probability of adding a write-cache stage (CPU only).
    cache_write_prob: float = 0.2
    #: Probability of rfactoring a split reduction axis.
    rfactor_prob: float = 0.15
    #: Probability of emitting a compute-inline-only schedule for
    #: reduction-free subgraphs.
    inline_prob: float = 0.1
    #: Candidate values for the auto_unroll_max_step pragma.
    unroll_steps: tuple[int, ...] = (0, 16, 64, 512)

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}, expected one of {TARGETS}")


class SketchGenerator:
    """Generates verified random schedules for a subgraph."""

    def __init__(self, config: SketchConfig):
        self.config = config

    def generate(self, subgraph: Subgraph, rng: np.random.Generator) -> Schedule:
        """Sample one schedule; statically verified fail-closed.

        Raises ``repro.analysis.InvalidScheduleError`` if the sampler ever
        emits a sequence the verifier rejects — that is a bug in the
        sampler, and letting it through would poison every downstream
        dataset record (see ISSUE/DESIGN motivation).
        """
        return self.generate_many(subgraph, 1, rng)[0]

    def generate_many(
        self, subgraph: Subgraph, n: int, rng: np.random.Generator
    ) -> list[Schedule]:
        """Sample ``n`` schedules, verified fail-closed.

        Equivalent to ``n`` :meth:`generate` calls on the same ``rng``
        stream; see :meth:`generate_profiled` for the gate.
        """
        return self.generate_profiled(subgraph, n, rng)[0]

    def generate_profiled(
        self, subgraph: Subgraph, n: int, rng: np.random.Generator
    ) -> tuple[list[Schedule], list[LoopNest]]:
        """Sample ``n`` schedules and return them with their loop nests.

        The sampler constructs sequences that are valid by definition of
        its own bookkeeping, so the gate is a guard against sampler bugs,
        not a filter: one fail-fast abstract interpretation per schedule
        (``repro.analysis.verifier.profile_valid_many``), whose nests —
        each equal to ``schedule.apply()`` — are handed on so callers
        never interpret a sequence twice.
        """
        # Imported lazily: repro.analysis imports repro.tensorir submodules,
        # so a module-level import here would be circular during package init.
        from repro.analysis.verifier import profile_valid_many
        from repro.tensorir.sampler import ScheduleSampler

        sampler = ScheduleSampler(self.config)
        schedules = [sampler.sample(subgraph, rng) for _ in range(n)]
        nests = profile_valid_many(
            subgraph, [s.primitives for s in schedules], self.config.target
        )
        return schedules, nests


__all__ = ["SketchConfig", "SketchGenerator", "TARGETS"]
