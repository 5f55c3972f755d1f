"""Static analysis: the semantics of schedule primitive sequences, their
verification, and the repo lint.

* ``absint`` — the one interpreter of primitive sequences: a transfer
  function per primitive kind over the loop nest.  Fail-fast, it yields
  the ``LoopNest`` ``Schedule.apply()`` returns (and the draft scores for
  draft-then-verify ranking are priced from it); collecting, it yields
  every diagnostic of a sequence.
* ``verifier`` — the verification entry points over that interpreter
  (structural E1xx rules, axis-liveness E2xx dataflow, W3xx performance
  smells) and the fail-closed gates.
* ``diagnostics`` — the :class:`Diagnostic` record and error-code taxonomy.
* ``lint`` — pluggable AST rule framework enforcing DESIGN.md §7
  conventions over the source tree
  (``python -m repro.analysis.lint src/ tests/ benchmarks/``).
"""

from __future__ import annotations

from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    InvalidScheduleError,
    Severity,
    errors,
    format_diagnostics,
    has_errors,
    taxonomy_table,
)
from repro.analysis.absint import AbsIntError, profile
from repro.analysis.verifier import (
    SequenceVerifier,
    VerifierConfig,
    assert_valid,
    assert_valid_many,
    verify_many,
    verify_schedule,
    verify_sequence,
)

__all__ = [
    "AbsIntError",
    "CODES",
    "Diagnostic",
    "InvalidScheduleError",
    "SequenceVerifier",
    "Severity",
    "VerifierConfig",
    "profile",
    "assert_valid",
    "assert_valid_many",
    "errors",
    "format_diagnostics",
    "has_errors",
    "taxonomy_table",
    "verify_many",
    "verify_schedule",
    "verify_sequence",
]
