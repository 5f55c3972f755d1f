"""Static verification of schedule primitive sequences.

Checks a primitive sequence against its subgraph *without* applying the
schedule or simulating latency: per-primitive structural rules (E1xx),
axis-liveness dataflow (E2xx), and performance-smell warnings (W3xx).
See ``repro.analysis.diagnostics`` for the code taxonomy.

The rules themselves live in one place, the transfer functions of
``repro.analysis.absint.Interpreter``; this module holds the public entry
points over it.  Verification never raises on bad input — it records
diagnostics and recovers best-effort so one corrupt step does not mask
later ones — and a sequence has an error diagnostic exactly when
``Schedule.apply()`` raises on it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.absint import AbsIntError, Interpreter, VerifierConfig
from repro.analysis.diagnostics import Diagnostic, InvalidScheduleError, errors
from repro.tensorir.loops import LoopNest
from repro.tensorir.primitives import Primitive
from repro.tensorir.schedule import Schedule
from repro.tensorir.subgraph import Subgraph


class SequenceVerifier:
    """Verifies primitive sequences against one subgraph and target.

    One instance is reusable across sequences: the interpreter's set-up
    (initial axes, smell thresholds) happens at construction and
    :meth:`verify` resets only the per-sequence state.  That is what makes
    :func:`verify_many` cheaper than constructing a verifier per sequence
    in a Python loop.
    """

    def __init__(
        self, subgraph: Subgraph, target: str = "cpu", config: VerifierConfig | None = None
    ):
        self.subgraph = subgraph
        self.target = target
        self.config = config or VerifierConfig()
        self.interpreter = Interpreter(subgraph, target, self.config)

    def verify(
        self, primitives: tuple[Primitive, ...], *, stop_on_error: bool = False
    ) -> list[Diagnostic]:
        """Verify one sequence, returning its diagnostics.

        With ``stop_on_error`` the pass returns at the first error
        diagnostic — the hot-path mode for callers that only gate on
        validity (warnings before the stop are kept).
        """
        return self.interpreter.diagnose(primitives, stop_on_error=stop_on_error)


def verify_sequence(
    subgraph: Subgraph,
    primitives: tuple[Primitive, ...],
    target: str = "cpu",
    config: VerifierConfig | None = None,
) -> list[Diagnostic]:
    """Statically verify a primitive sequence against a subgraph."""
    return SequenceVerifier(subgraph, target, config).verify(tuple(primitives))


def verify_many(
    subgraph: Subgraph,
    sequences: "Iterable[tuple[Primitive, ...]]",
    target: str = "cpu",
    config: VerifierConfig | None = None,
    *,
    stop_on_error: bool = False,
) -> list[list[Diagnostic]]:
    """Verify a batch of sequences against one subgraph and target.

    Beats a Python loop of :func:`verify_sequence` by constructing the
    verifier once and resetting it per sequence; ``stop_on_error``
    additionally early-exits each sequence at its first error — the
    screening mode for batch producers that only gate on validity.
    """
    verifier = SequenceVerifier(subgraph, target, config)
    return [
        verifier.verify(tuple(seq), stop_on_error=stop_on_error) for seq in sequences
    ]


def verify_schedule(schedule: Schedule, config: VerifierConfig | None = None) -> list[Diagnostic]:
    """Statically verify a :class:`Schedule` (sequence + subgraph + target)."""
    return verify_sequence(schedule.subgraph, schedule.primitives, schedule.target, config)


def _rejected(subgraph: Subgraph, bad: list[Diagnostic]) -> InvalidScheduleError:
    return InvalidScheduleError(f"schedule of {subgraph.name!r} failed static verification", bad)


def assert_valid(schedule: Schedule, config: VerifierConfig | None = None) -> list[Diagnostic]:
    """Fail-closed gate: raise on any error diagnostic, return all diagnostics."""
    diags = verify_schedule(schedule, config)
    bad = errors(diags)
    if bad:
        raise _rejected(schedule.subgraph, bad)
    return diags


def assert_valid_many(
    schedules: Sequence[Schedule], config: VerifierConfig | None = None
) -> list[list[Diagnostic]]:
    """Fail-closed gate over a batch: raise on any error diagnostic.

    The batch analogue of :func:`assert_valid`: one verifier per
    (subgraph, target) run, each sequence screened fail-fast; warnings on
    sequences before the failing one are still returned.
    """
    all_diags: list[list[Diagnostic]] = []
    verifier: SequenceVerifier | None = None
    for schedule in schedules:
        if (
            verifier is None
            or verifier.subgraph is not schedule.subgraph
            or verifier.target != schedule.target
        ):
            verifier = SequenceVerifier(schedule.subgraph, schedule.target, config)
        diags = verifier.verify(schedule.primitives, stop_on_error=True)
        bad = errors(diags)
        if bad:
            raise _rejected(schedule.subgraph, bad)
        all_diags.append(diags)
    return all_diags


def profile_valid_many(
    subgraph: Subgraph, sequences: "Iterable[tuple[Primitive, ...]]", target: str = "cpu"
) -> list[LoopNest]:
    """The fail-closed generation gate, handing on what it computed.

    One fail-fast interpretation per sequence, raising
    :class:`InvalidScheduleError` on the first error diagnostic, that
    returns each sequence's loop nest — so callers (the dataset build's
    pricing, the scorer's draft) never interpret the sequence again.
    """
    interpreter = Interpreter(subgraph, target)
    nests = []
    for seq in sequences:
        try:
            nests.append(interpreter.profile(seq))
        except AbsIntError as err:
            raise _rejected(subgraph, [err.diagnostic]) from err
    return nests


__all__ = [
    "SequenceVerifier",
    "VerifierConfig",
    "assert_valid",
    "assert_valid_many",
    "profile_valid_many",
    "verify_many",
    "verify_schedule",
    "verify_sequence",
]
