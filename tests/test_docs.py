"""The docs describe the tree as it is.

Every ``repro.<dotted>`` name, ``make <target>`` and repo path that
README.md, DESIGN.md and EXPERIMENTS.md mention must exist.  The one
exception is a single section per document headed "Not built in this
tree", which lists what the paper has and this tree does not.
"""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
EXEMPT_HEADING = "Not built in this tree"

_HEADING = re.compile(r"^(#+)\s+(.*)$")
_REPRO_REF = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
_MAKE_REF = re.compile(r"(?<![\w-])make\s+([A-Za-z][\w-]*)")
_INLINE_CODE = re.compile(r"`([^`]+)`")
#: A repo path: directories, then a file with an extension or a final "/".
_PATH = re.compile(r"^[\w.-]+(?:/[\w.*-]+)*(?:/[\w*-]+\.[A-Za-z]+|/)$")
_MAKE_TARGET = re.compile(r"^([\w.-]+)\s*:(?!=)", re.MULTILINE)


def _split(doc: str) -> tuple[str, list[str], int]:
    """(checked text, checked code snippets, number of exempt sections).

    Text under the exempt heading is dropped up to the next heading of
    the same or a higher level; ``#`` lines inside fenced code are not
    headings.
    """
    kept: list[str] = []
    fenced: list[str] = []
    in_fence = False
    exempt_level = 0
    n_exempt = 0
    for line in (ROOT / doc).read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        heading = None if in_fence else _HEADING.match(line)
        if heading:
            level = len(heading.group(1))
            if exempt_level and level <= exempt_level:
                exempt_level = 0
            if EXEMPT_HEADING.lower() in heading.group(2).lower():
                exempt_level = level
                n_exempt += 1
        if exempt_level:
            continue
        (fenced if in_fence else kept).append(line)
    prose = "\n".join(kept)
    code = fenced + _INLINE_CODE.findall(prose)
    return prose + "\n" + "\n".join(fenced), code, n_exempt


def _resolves(dotted: str) -> bool:
    """The longest importable prefix exists and the rest are attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        name = ".".join(parts[:i])
        try:
            spec = importlib.util.find_spec(name)
        except ModuleNotFoundError:
            spec = None
        if spec is None:
            continue
        obj = importlib.import_module(name)
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_at_most_one_not_built_section(doc):
    assert _split(doc)[2] <= 1


@pytest.mark.parametrize("doc", DOCS)
def test_repro_references_resolve(doc):
    text, _, _ = _split(doc)
    refs = sorted(set(_REPRO_REF.findall(text)))
    missing = [ref for ref in refs if not _resolves(ref)]
    assert not missing, f"{doc} names absent code: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_make_targets_exist(doc):
    targets = set(_MAKE_TARGET.findall((ROOT / "Makefile").read_text()))
    _, code, _ = _split(doc)
    named = {t for snippet in code for t in _MAKE_REF.findall(snippet)}
    assert named - targets == set(), f"{doc} names absent make targets"


@pytest.mark.parametrize("doc", DOCS)
def test_repo_paths_exist(doc):
    """Paths in code exist, from the repo root, ``src/`` or ``src/repro/``."""
    _, code, _ = _split(doc)
    paths = {tok for snippet in code for tok in snippet.split() if _PATH.match(tok)}
    bases = (ROOT, ROOT / "src", ROOT / "src" / "repro")
    missing = sorted(
        p for p in paths
        if not any(next(base.glob(p.rstrip("/")), None) for base in bases)
    )
    assert not missing, f"{doc} names absent paths: {missing}"
