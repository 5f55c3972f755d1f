"""Measure the abstract-interpreter perf numbers and write the trajectory file.

``make bench-save`` runs this script after the simhw saver; it times
interpretation (one interpreter for the batch) and draft scoring over a
1,024-candidate batch, the
draft-then-verify serving round against the full-predict round (same
trained model and seeded candidate stream as ``bench_absint.py``), and
writes ``BENCH_absint.json`` at the repo root.  The top-1-preserved flag
doubles as a determinism probe: the whole pipeline is seeded, so a
flipped winner means a real behavior change, not noise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_absint import (  # noqa: E402
    DRAFT_KEEP,
    N_CANDIDATES,
    TOP_K,
    build_subgraph,
    build_trained_scorer,
    interpret_batch,
)
from repro.analysis import absint  # noqa: E402
from repro.tensorir import SketchConfig, SketchGenerator  # noqa: E402
from repro.utils.rng import stream  # noqa: E402
from repro.utils.timer import Timer, best_of, format_seconds  # noqa: E402

REPEATS = 3
OUT_PATH = REPO_ROOT / "BENCH_absint.json"


def main() -> int:
    subgraph = build_subgraph()
    gen = SketchGenerator(SketchConfig("cpu"))
    candidates = gen.generate_many(subgraph, N_CANDIDATES,
                                   stream("bench.absint.plane"))

    t_interpret = best_of(lambda: interpret_batch(subgraph, candidates), REPEATS)
    t_draft = best_of(lambda: absint.draft_scores(subgraph, candidates), REPEATS)

    with Timer() as t_train:
        scorer = build_trained_scorer(subgraph)

    def full():
        return scorer.propose_topk(subgraph, N_CANDIDATES, TOP_K,
                                   stream("bench.absint.round"))

    def drafted():
        return scorer.propose_topk(subgraph, N_CANDIDATES, TOP_K,
                                   stream("bench.absint.round"),
                                   draft_keep=DRAFT_KEEP)

    _, top_full = full()
    _, top_draft = drafted()
    t_full = best_of(full, REPEATS)
    t_drafted = best_of(drafted, REPEATS)

    report = {
        "benchmark": "absint",
        "candidates": N_CANDIDATES,
        "interpret_seconds": t_interpret,
        "nests_per_sec": N_CANDIDATES / t_interpret,
        "draft_scores_seconds": t_draft,
        "train_seconds": t_train.elapsed,
        "draft_keep": DRAFT_KEEP,
        "full_round_seconds": t_full,
        "draft_round_seconds": t_drafted,
        "speedup": t_full / t_drafted,
        "n_predicted_full": int(top_full.n_predicted),
        "n_predicted_draft": int(top_draft.n_predicted),
        "top1_preserved": bool(top_full.indices[0] == top_draft.indices[0]),
    }
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"interpret: {N_CANDIDATES} candidates in "
          f"{format_seconds(t_interpret)} "
          f"({N_CANDIDATES / t_interpret:,.0f} nests/sec)")
    print(f"draft_scores: {format_seconds(t_draft)}")
    print(f"serving round: full {format_seconds(t_full)} vs drafted "
          f"{format_seconds(t_drafted)} ({t_full / t_drafted:.2f}x, "
          f"{top_draft.n_predicted}/{N_CANDIDATES} predicted, "
          f"top-1 preserved: {report['top1_preserved']})")
    print(f"wrote {OUT_PATH.name}")
    if not report["top1_preserved"]:
        print("ERROR: draft-then-verify changed the top-1 pick", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
