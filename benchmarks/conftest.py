"""Benchmark collection gates.

Each benchmark module names the subsystems it exercises; a module whose
imports are not available is not collected, so the tier-1 run stays
green on a partial tree.
"""

from __future__ import annotations

import importlib.util

_REQUIRES = {
    "bench_extractor.py": ("repro.core",),
    "bench_simhw.py": ("repro.simhw",),
    "bench_nn.py": ("repro.nn", "repro.core.tlp_model"),
    "bench_inference.py": ("repro.nn.functional", "repro.core.tlp_model",
                           "repro.core.scoring"),
    "bench_absint.py": ("repro.analysis.absint", "repro.core.scoring",
                        "repro.simhw", "repro.nn"),
    "bench_training.py": ("repro.core.trainer", "repro.dataset", "repro.nn"),
}


def _missing(module: str) -> bool:
    try:
        return importlib.util.find_spec(module) is None
    except ModuleNotFoundError:
        return True


collect_ignore = [f for f, mods in _REQUIRES.items() if any(_missing(m) for m in mods)]

