# Developer entry points.  The offline test image ships python+numpy+pytest
# only; ruff and mypy are optional extras (pip install -e .[lint]) and are
# skipped with a notice when absent so `make lint` works everywhere.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint safelint safedim lint-shape lint-flow gates ruff mypy precommit test oracles benchmarks bench-record bench-compare bench-engine slo chaos campaign-smoke shard-smoke trace-smoke serve-smoke baseline

lint: safelint ruff mypy

safelint:
	$(PYTHON) -m repro.lint src tests benchmarks

# The dimensional-analysis family alone (SFL100-SFL105), baseline-free:
# a unit violation in src/ can never be grandfathered.
safedim:
	$(PYTHON) -m repro.lint src --select SFL1 --no-baseline

# The safeshape family alone (SFL200-SFL205), baseline-free: the array
# core must stay shape-certified with zero suppressions (the
# precondition for the vectorized batch engine; see docs/LINTING.md).
lint-shape:
	$(PYTHON) -m repro.lint src --select SFL2 --no-baseline

# The safeflow family alone (SFL300-SFL306), baseline-free: purity/
# effect contradictions and vectorization blockers in src/ can never be
# grandfathered (see docs/LINTING.md).
lint-flow:
	$(PYTHON) -m repro.lint src --select SFL3 --no-baseline

# All four gate families in ONE interpreter (--gates shares the parse
# cache across them), baseline-free over src.
gates:
	$(PYTHON) -m repro.lint src --gates lint,dim,shape,flow --no-baseline

# What CI's lint job runs; mirror of .pre-commit-config.yaml.  The
# per-family gates run through `gates` (one process); the full-tree
# safelint pass still covers tests/ and benchmarks/.
precommit: safelint gates ruff mypy

ruff:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; \
	then ruff check .; \
	else echo "ruff not installed; skipping (pip install -e .[lint])"; fi

mypy:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; \
	then $(PYTHON) -m mypy src/repro; \
	else echo "mypy not installed; skipping (pip install -e .[lint])"; fi

test:
	$(PYTHON) -m pytest -x -q

# Fast-path differential tests (~25 s): every fast path against the
# slow oracle it replaced (the Kalman filter against its matrix form,
# the fused estimate against its Interval form, the block-buffered RNG
# stream against the unbuffered one, the planner's NN inference against
# Sequential.forward), with exact or 1e-9 agreement case by case and
# identical episodes.  See docs/ROBUSTNESS.md section 8.
oracles:
	$(PYTHON) -m pytest tests/test_kalman_oracle.py tests/test_estimate_oracle.py \
		tests/test_rng_oracle.py tests/test_nn_inference_oracle.py -q

benchmarks:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Benchmarks with machine-readable recording: writes one
# BENCH_<area>.json per benchmark file (see docs/OBSERVABILITY.md).
bench-record:
	REPRO_BENCH_RECORD=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Structural comparison of a fresh recording (REPRO_BENCH_DIR, default
# /tmp/repro-bench) against the checked-in baselines; what CI's
# bench-record job runs.  See docs/OBSERVABILITY.md.
BENCH_DIR ?= /tmp/repro-bench
bench-compare:
	$(PYTHON) scripts/bench_compare.py --recorded $(BENCH_DIR)

# Engine benchmark self-check (~1.5 min): the harness tests, then one
# smoke round of every workload (checks the harness and the correctness
# gates, not speed).  Timed runs and comparisons: benchmarks/engine/README.md.
bench-engine:
	$(PYTHON) -m pytest benchmarks/engine -q
	$(PYTHON) benchmarks/engine/run.py --workload all --smoke --seed 1

# SLO gate over the freshly recorded serve benchmark (run bench-record
# with REPRO_BENCH_DIR=$(BENCH_DIR) first); exit 1 on any violated
# objective.  See the SLO section of docs/OBSERVABILITY.md.
slo:
	$(PYTHON) -m repro.obs.obs_cli slo check $(BENCH_DIR)/BENCH_serve.json \
		--spec slo/serve_bench.json

# Chaos suite (~30 s): fault-model, fault-plan and crash-tolerance tests,
# the batch runner against its test-side reference, plus the chaos
# certification benchmark (zero collisions for the shielded planner
# across the fault grid, bit-identical process-pool results under
# injected worker crashes).  See docs/ROBUSTNESS.md.
chaos:
	$(PYTHON) -m pytest tests/test_comm_faults.py tests/test_fault_plan.py \
		tests/test_parallel_faults.py tests/test_runner_reference.py -q
	$(PYTHON) -m pytest benchmarks/test_bench_chaos.py \
		benchmarks/test_bench_campaign.py --benchmark-only -q

# Durability smoke (~20 s): runs a campaign, SIGKILLs it mid-run,
# resumes, and requires the resumed aggregate.json to be byte-identical
# to an uninterrupted reference — all through the repro-campaign CLI.
# See the Durability section of docs/ROBUSTNESS.md.
campaign-smoke:
	$(PYTHON) scripts/campaign_smoke.py

# Shard chaos smoke (~60 s): shards a campaign across three worker
# processes, SIGKILLs one worker and then the coordinator itself,
# shard-resumes with a fresh fleet, and requires the merged
# aggregate.json to be byte-identical to a sequential reference — all
# through the repro-campaign CLI.  See the Distribution section of
# docs/ROBUSTNESS.md.
shard-smoke:
	$(PYTHON) scripts/shard_smoke.py

# Observability smoke (~30 s): records a fully traced episode + a small
# traced campaign, validates the Chrome trace-event export, checks the
# shield/filter/channel events are present, and gates the disabled-
# observer overhead on a micro benchmark (<=3% vs an untraced baseline,
# REPRO_TRACE_TOL to widen on noisy machines).  See docs/OBSERVABILITY.md.
trace-smoke:
	$(PYTHON) scripts/trace_smoke.py

# Serving chaos smoke (~15 s): streams ~200 decisions through the
# repro-serve CLI — healthy planner, injected hung planner, SIGKILL
# mid-stream + restart — and requires every reply at every ladder
# level to be shield-verified safe with exact serve.* accounting.
# See docs/ROBUSTNESS.md.
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

# Regenerate the safelint baseline (see docs/LINTING.md before using).
baseline:
	$(PYTHON) -m repro.lint src --write-baseline
