export PYTHONPATH := src

PYTHON ?= python

.PHONY: test lint lint-json gradcheck bench bench-save smoke-infer smoke-simhw smoke-dataset smoke-train smoke-perfbench check

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.analysis.lint src/ tests/ benchmarks/

lint-json:
	$(PYTHON) -m repro.analysis.lint --format json src/ tests/ benchmarks/

gradcheck:
	$(PYTHON) -m pytest -x -q -m gradcheck

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-save:
	$(PYTHON) benchmarks/bench_save.py
	$(PYTHON) benchmarks/bench_save_inference.py
	$(PYTHON) benchmarks/bench_save_simhw.py
	$(PYTHON) benchmarks/bench_save_absint.py
	$(PYTHON) benchmarks/bench_save_dataset.py
	$(PYTHON) benchmarks/bench_save_training.py

# ~2 s end-to-end serving smoke: propose -> verify -> featurize ->
# predict -> top-k, asserting predict bit-identical to the taped forward.
smoke-infer:
	$(PYTHON) -c "import repro.core.scoring as s; raise SystemExit(s.main())"

# Simulated-hardware smoke: measure a candidate batch on all 7 platforms,
# asserting bit-reproducibility and sane labels (also runnable directly
# as `python -m repro.simhw.measure`).
smoke-simhw:
	$(PYTHON) -c "import importlib; raise SystemExit(importlib.import_module('repro.simhw.measure').main([]))"

# Dataset-factory smoke: build the tiny 2-platform, multi-shard store
# twice, asserting bit-identical shards + manifest and a readable
# network-level split (also runnable as `python -m repro.dataset.pipeline`).
smoke-dataset:
	$(PYTHON) -c "import importlib; raise SystemExit(importlib.import_module('repro.dataset.pipeline').main([]))"

# Offline-trainer smoke (~15 s): build the tiny 5-network store, train the
# small TLP model twice from scratch, asserting a bit-identical run digest,
# decreasing loss, and held-out top-5 above the exact random baseline
# (also runnable as `python -m repro.core.trainer`).
smoke-train:
	$(PYTHON) -c "import importlib; raise SystemExit(importlib.import_module('repro.core.trainer').main())"

# Benchmark smoke (~60 s): every perfbench workload once, at a short
# window; fails unless the final JSON line reports a correct run with no
# failed operations (perfbench checks digests and oracles itself).
smoke-perfbench:
	$(PYTHON) perfbench/run.py --workload all --seed 1 --seconds 2 | $(PYTHON) -c "import json, sys; lines = sys.stdin.read().splitlines(); print(*lines, sep='\n'); r = json.loads(lines[-1]); sys.exit(0 if r['correct'] is True and r['failed'] == 0 else 'perfbench smoke: the run is not correct or has failed operations')"

# `test` already collects the gradcheck-marked tests; `make gradcheck`
# runs them alone.
check: lint test smoke-infer smoke-simhw smoke-dataset smoke-train
