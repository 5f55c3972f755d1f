"""Canonical per-kind parameter layout for TLP featurization (Fig. 4).

TLP featurizes each schedule primitive as the triple the paper calls its
"vectorization": one-hot primitive kind ++ tokenized character parameters
++ raw numeric parameters.  This module fixes the *canonical* reading of
each primitive kind into that triple so the batch extractor
(``repro.core.extractor``), the naive reference oracle
(``repro.core.extractor_reference``), and later dataset statistics
(Table 1 per-kind embedding sizes) all agree on it.

Per-kind layout (mirrors the field table in
``repro.tensorir.primitives.Primitive``):

===== ============================== ==============================
kind  character parameters           numeric parameters
===== ============================== ==============================
SP    axis name                      (extent, factor, factor, ...)
RE    full loop order, ;-joined      —
FU    fused axis names, ;-joined     —
AN    axis name ; annotation token   —
PR    axis name ; pragma token       (value,)
FSP   axis name                      (extent, src_step_index)
CA    axis name                      —
CHW   —                              —
RF    axis name                      —
CI    —                              —
CP    —                              —
===== ============================== ==============================

Character parameters are tokenized *per character* (as TLP does for
Ansor's string parameters), so a primitive's feature row is

    [one-hot kind (11)] ++ [char token ids] ++ [raw numerics]

with no cross-instance slot alignment: rows vary in length and the
extractor pads them to the corpus-wide maximum before the Table 4
crop/pad.  Long-parameter kinds (RE carries the whole loop order) thus
produce the longest rows and absorb most of the crop — the paper's
Table 1 / Table 4 structure.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.tensorir.primitives import Primitive, PrimitiveKind

#: Fixed one-hot position of each primitive kind (declaration order of
#: :class:`PrimitiveKind`; stable across sessions — features depend on it).
KIND_ORDER: tuple[PrimitiveKind, ...] = tuple(PrimitiveKind)
KIND_INDEX: dict[PrimitiveKind, int] = {kind: i for i, kind in enumerate(KIND_ORDER)}
N_KINDS: int = len(KIND_ORDER)

#: Separator between adjacent character parameters in the token stream
#: (axis names may themselves contain ``.`` / ``@``; ``;`` never occurs).
CHAR_SEP = ";"


class AbstractPrimitive(NamedTuple):
    """One primitive reduced to the canonical featurization triple."""

    kind_index: int
    chars: str
    numerics: tuple[int, ...]

    @property
    def payload_length(self) -> int:
        """Feature-row length beyond the one-hot block."""
        return len(self.chars) + len(self.numerics)


def char_params(prim: Primitive) -> str:
    """The primitive's character parameters as one canonical string."""
    if prim.attr:
        return CHAR_SEP.join((*prim.axes, prim.attr)) if prim.axes else prim.attr
    return CHAR_SEP.join(prim.axes)


def abstract(prim: Primitive) -> AbstractPrimitive:
    """Reduce one primitive to its canonical (kind, chars, numerics) triple."""
    return AbstractPrimitive(KIND_INDEX[prim.kind], char_params(prim), prim.ints)


__all__ = [
    "CHAR_SEP",
    "KIND_INDEX",
    "KIND_ORDER",
    "N_KINDS",
    "AbstractPrimitive",
    "abstract",
    "char_params",
]
