"""Measure the inference fast-path perf numbers and write the trajectory file.

``make bench-save`` runs this script after ``bench_save.py``; it times
the taped forward and the fused ``predict`` path on a 1,024-schedule
batch, plus the end-to-end ``CandidateScorer`` loop, and writes
``BENCH_nn_inference.json`` at the repo root — the committed perf
trajectory for the serving path (predict >= 3x the taped forward,
bit-identical).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core import (  # noqa: E402
    CandidateScorer,
    PostprocessConfig,
    TLPFeaturizer,
    TLPModel,
    TLPModelConfig,
)
from repro.tensorir import SketchConfig, SketchGenerator, matmul_subgraph  # noqa: E402
from repro.utils.rng import stream  # noqa: E402
from repro.utils.timer import Timer, best_of, format_seconds  # noqa: E402

BATCH = 1024
TOP_K = 32
REPEATS = 5
OUT_PATH = REPO_ROOT / "BENCH_nn_inference.json"

_CONFIG = TLPModelConfig(emb=22, hidden=64, n_heads=4, n_res_blocks=2,
                         stream_name="bench.inference.model")


def main() -> int:
    gen = SketchGenerator(SketchConfig("cpu"))
    subgraph = matmul_subgraph(128, 128, 128)
    corpus = gen.generate_many(subgraph, BATCH, stream("bench.inference"))
    featurizer = TLPFeaturizer(PostprocessConfig()).fit(corpus)
    X, mask = featurizer.transform(corpus)
    model = TLPModel(_CONFIG).eval()

    taped_scores = model(X, mask).data
    t_taped = best_of(lambda: model(X, mask), REPEATS)

    # Cold: first predict call builds every scratch buffer.
    model._arena.clear()
    with Timer() as t_cold:
        predict_scores = model.predict(X, mask)
    assert np.array_equal(predict_scores, taped_scores), \
        "predict() diverged from the taped forward"

    # Steady: arena warm — the serving regime.
    model._arena.reset_counters()
    t_predict = best_of(lambda: model.predict(X, mask), REPEATS)
    assert model._arena.misses == 0, model.scratch_info()

    scorer = CandidateScorer(model, featurizer, gen)
    scorer.score_topk(subgraph, corpus, TOP_K)  # warm caches end to end
    t_scorer = best_of(lambda: scorer.score_topk(subgraph, corpus, TOP_K), REPEATS)

    report = {
        "benchmark": "nn_inference",
        "batch": BATCH,
        "model": {"emb": _CONFIG.emb, "hidden": _CONFIG.hidden,
                  "n_heads": _CONFIG.n_heads, "n_res_blocks": _CONFIG.n_res_blocks},
        "scratch": model.scratch_info(),
        "timings_ms": {
            "forward_taped": round(t_taped * 1e3, 3),
            "predict_cold": round(t_cold.elapsed * 1e3, 3),
            "predict_steady": round(t_predict * 1e3, 3),
            "scorer_end_to_end": round(t_scorer * 1e3, 3),
        },
        "speedups": {
            "predict_vs_taped": round(t_taped / t_predict, 2),
        },
        "throughput": {
            "predict_candidates_per_sec": round(BATCH / t_predict, 1),
            "scorer_candidates_per_sec": round(BATCH / t_scorer, 1),
        },
    }
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print(f"wrote {OUT_PATH}")
    for name, ms in report["timings_ms"].items():
        print(f"  {name:>24}: {format_seconds(ms / 1e3)}")
    for name, ratio in report["speedups"].items():
        print(f"  {name:>24}: {ratio}x")
    for name, value in report["throughput"].items():
        print(f"  {name:>28}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
