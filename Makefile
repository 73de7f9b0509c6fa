# Convenience targets for the reproduction.  Everything works from a clean
# checkout with no installation: PYTHONPATH=src is injected here, and is
# harmless if the package has been `pip install -e .`ed instead.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-report bench-smoke batch-check fit-check serve-check sweep-check mv-check docs-check quickstart experiments results check-artifacts all

## tier-1 gate: unit/property/integration tests + benchmark harness
test:
	$(PYTHON) -m pytest -x -q

## benchmarks only (one per paper artefact, plus the prefix-engine and
## batched-prediction speedups); every test_bench_<name>.py module also
## writes a machine-readable results/bench/BENCH_<name>.json record
## (wall times, explicit metrics, git SHA, Python/NumPy versions)
bench:
	$(PYTHON) -m pytest benchmarks -q
	$(PYTHON) tools/bench_record.py

## summarise the benchmark records already on disk without re-running
bench-report:
	$(PYTHON) tools/bench_record.py

## smoke-run every BENCHMARK.json workload (small inputs, untraced and
## traced): each must pass its output checks -- table1's includes the
## ECTS/EDSC accuracies of the per-row walk -- and print exactly the
## declared metric names (run by CI on every push)
bench-smoke:
	$(PYTHON) perfbench/check_names.py

## batched-inference drift gate: batch-vs-per-row equivalence suite plus the
## >= 5x full-test-set speedup benchmarks (ECTS, EDSC-CHE/KDE) and the
## Reliable/LDG batched-vs-per-row record (run by CI on every push)
batch-check:
	$(PYTHON) -m pytest tests/test_batch_predict.py benchmarks/test_bench_batch_predict.py benchmarks/test_bench_reliable.py -q

## training-engine drift gate: fit-kernel equivalence suite (exact ECTS
## MPLs/supports, exact EDSC shapelet selection, EDSC-KDE coarse-to-fine
## threshold search identical to the full-grid oracle in tests/oracles/edsc.py)
## plus the >= 5x fit speedup benchmarks and the KDE search's <= 25%
## grid-share gate (run by CI on every push)
fit-check:
	$(PYTHON) -m pytest tests/test_training_kernels.py benchmarks/test_bench_fit.py -q

## serving-layer drift gate: the multi-tenant engine's batched alarms must
## stay identical to dedicated per-stream sessions (equivalence + fuzz +
## shedding suites) and keep its >= 5x fleet throughput over sequential
## sessions, timed as medians of 5 interleaved pairs.  Engine and sessions
## share one window ledger and batched classifier walk, so the ratio
## measures batching across streams against batching within one stream.
## Every flush's ECTS walk rides the prefix-distance sweep, so its suite
## (bit-identical to the cumulative-sum kernel at any step size) and its
## >= 5x single-step gate run here too (run by CI on every push)
serve-check:
	$(PYTHON) -m pytest tests/test_serving.py tests/test_distance_engine.py benchmarks/test_bench_serving.py benchmarks/test_bench_prefix_engine.py -q

## out-of-core/resume drift gate: memory-budget chunking must stay
## bit-identical, the sweep's kernels (the prefix-distance engine, including
## its one-length sum, and row-wise z-norm) must match their dense formulas,
## the sharded format must round-trip + verify, the work-queue scheduler must
## survive worker death, resume must re-run a task whose artifact is missing
## or edited, a resume must replay the manifest's transition log (ignoring a
## torn final record, at any byte a kill cuts it) and reach the same sweep
## outputs after a SIGKILL at random moments, the sweep task must equal a
## dense 1-NN oracle, and the 104-dataset sweep benchmark must hold its
## peak-RSS cap and >= 5x warm-resume speedup.  Experiment runs drain
## through the same queue and resume through the same manifest check, so
## the scheduler and experiments-CLI suites run here too (run by CI on
## every push)
sweep-check:
	$(PYTHON) -m pytest tests/test_memory.py tests/test_distance_engine.py tests/test_distance_znorm.py tests/test_data_shards.py tests/test_runtime_sweep.py tests/test_runtime_scheduler.py tests/test_experiments_cli.py benchmarks/test_bench_sweep.py -q

## multichannel drift gate: (n, L, 1) tensors must stay bit-identical to the
## legacy (n, L) layout (so every d=1 golden summary is byte-stable), every
## d > 1 kernel must match its naive per-channel Python-loop reference to
## <= 1e-10, and the vectorised channel-summed kernel must keep its >= 5x win
## over the per-channel loop on the 6-axis Table-1-scale fit/predict workload
## (run by CI on every push)
mv-check:
	$(PYTHON) -m pytest tests/test_multichannel.py tests/test_experiments_golden.py benchmarks/test_bench_multichannel.py -q

## fail if README/ARCHITECTURE or src/ docstrings and comments reference
## modules, attributes or files that don't exist
docs-check:
	$(PYTHON) tools/docs_check.py

quickstart:
	$(PYTHON) examples/quickstart.py

## regenerate every paper artefact at reduced scale
experiments:
	$(PYTHON) -m repro.experiments --fast

## regenerate every artefact in parallel and write results/<name>.json
results:
	$(PYTHON) -m repro.experiments --fast --jobs 2 --json

## fail unless every results/*.json artifact parses with non-empty metrics
check-artifacts:
	$(PYTHON) tools/check_artifacts.py results

all: test docs-check
