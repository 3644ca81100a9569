# Developer entry points.  The tier-1 gate is `make test` (identical to the
# ROADMAP's verify line); `make test-batch` is the fast smoke slice covering
# the repro.batch subsystem, for quick iteration on batching changes;
# `make trace-smoke` exercises the tracing pipeline end to end (generate an
# instance, solve it traced, validate the merged Chrome-trace JSON).
# `make metrics-smoke` runs the canonical metrics workload and validates the
# Prometheus exposition; `make gate` re-runs it and compares the snapshot
# against the committed baseline, failing on any metric regression.
# `make sparse-smoke` exercises the sparse solver path end to end (generate
# a sparse instance, solve it with the dense and both sparse revised
# backends, assert the objectives agree).
# `make serve-smoke` replays a small arrival trace through the serving layer
# (fleet beats sequential, warm-start cache hits land).
# `make pdlp-smoke` runs the first-order (PDLP) backends on a sparse
# instance and asserts they agree with the revised simplex, and that
# method="auto" dispatches to a registered method.
# `make obs-smoke` replays a trace with the repro.obs span recorder on,
# validates span-tree containment, checks the attribution buckets sum to
# each job's latency, and validates the exported Chrome span trace.
# `make fuse-smoke` solves the same LP with launch-plan fusion off and on,
# asserts the fp64 results are bit-identical while the fused run issues
# strictly fewer kernel launches, and checks mixed precision recovers the
# fp64 objective.
# `make bench W=<workload>` runs one 25 s repo-benchmark pass of perfbench
# (dense-paper, sparse-simplex, sparse-pdlp or serve-replay; host clock,
# seed 1, untraced); plain `make bench` regenerates the evaluation tables.
# `make bench-tests` runs the perfbench harness's own tests.
# `make bench-pairs W=<workload> PARENT=<rev> N=<pairs> SEED=<seed>` runs N
# alternating parent/change perfbench passes (the parent via git archive)
# and prints each side's median, quartiles and win count per end-to-end
# metric plus both modeled digests.
# `make lint` enforces the layering architecture (no direct
# trace/metrics/obs imports inside solver backends; serve modules reach
# metrics and spans only through the instrument façade; the shared PDHG
# loop imports neither the device nor the cost model); `make verify` is
# the single pre-commit entry point: tier-1 tests + lint + the sparse,
# serve, pdlp, obs and fuse smokes + the metrics regression gate + the
# perfbench harness tests (the tracer imports backend modules by name).

PYTHONPATH_SRC := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)

METRICS_BASELINE := benchmarks/baselines/metrics-smoke.json

.PHONY: test test-batch trace-smoke sparse-smoke serve-smoke pdlp-smoke \
	obs-smoke fuse-smoke metrics-smoke gate gate-baseline bench bench-tests bench-batch \
	bench-pairs lint verify

test:  ## tier-1: the full test suite
	$(PYTHONPATH_SRC) python -m pytest -x -q

lint:  ## architecture lint: backend/serve import layering rules
	python tools/lint_backend_imports.py

verify: test lint sparse-smoke serve-smoke pdlp-smoke obs-smoke fuse-smoke gate bench-tests  ## pre-commit: tests + lint + smokes + gate + harness tests

test-batch:  ## fast smoke: batch subsystem tests only
	$(PYTHONPATH_SRC) python -m pytest -x -q -k "batch"

trace-smoke:  ## end-to-end: repro trace -> merged Chrome JSON -> validate
	$(PYTHONPATH_SRC) python -m repro generate dense 24 32 --out /tmp/trace-smoke.mps
	$(PYTHONPATH_SRC) python -m repro trace /tmp/trace-smoke.mps \
		--method gpu-revised --out /tmp/trace-smoke.json
	$(PYTHONPATH_SRC) python -c "from repro.trace import validate_chrome_trace; \
		doc = validate_chrome_trace(open('/tmp/trace-smoke.json').read()); \
		cats = {e.get('cat') for e in doc['traceEvents']}; \
		assert 'solver-phase' in cats and 'kernel' in cats, cats; \
		print('trace-smoke ok:', len(doc['traceEvents']), 'events')"

sparse-smoke:  ## end-to-end: sparse instance -> dense + sparse solvers agree
	$(PYTHONPATH_SRC) python -m repro generate sparse 80 120 --density 0.05 \
		--seed 11 --out /tmp/sparse-smoke.mps
	$(PYTHONPATH_SRC) python -c "\
	from repro.lp.mps import read_mps; \
	from repro import solve; \
	lp = read_mps('/tmp/sparse-smoke.mps'); \
	objs = {m: solve(lp, method=m).objective \
	        for m in ('revised', 'revised-sparse', 'gpu-revised-sparse')}; \
	ref = objs['revised']; \
	assert all(abs(o - ref) <= 1e-6 * max(1.0, abs(ref)) for o in objs.values()), objs; \
	print('sparse-smoke ok:', objs)"

serve-smoke:  ## end-to-end: arrival trace -> fleet serving -> invariants
	$(PYTHONPATH_SRC) python -c "\
	from repro.serve import ServeConfig, serve_trace, synthetic_trace; \
	trace = synthetic_trace(n_jobs=16, seed=7); \
	seq = serve_trace(trace, ServeConfig(n_devices=1, n_streams=1, cache_capacity=1)); \
	fleet = serve_trace(trace, ServeConfig(n_devices=2)); \
	assert fleet.all_optimal and seq.all_optimal; \
	assert fleet.span_seconds < seq.span_seconds, (fleet.span_seconds, seq.span_seconds); \
	assert fleet.cache_hits >= 1, fleet.cache.summary(); \
	print('serve-smoke ok:', fleet.summary())"

pdlp-smoke:  ## end-to-end: first-order backends agree with simplex + auto dispatch
	$(PYTHONPATH_SRC) python -m repro generate sparse 80 120 --density 0.05 \
		--seed 11 --out /tmp/pdlp-smoke.mps
	$(PYTHONPATH_SRC) python -c "\
	from repro.lp.mps import read_mps; \
	from repro import solve; \
	from repro.solve import choose_method; \
	from repro.lp.generators import random_sparse_lp; \
	lp = read_mps('/tmp/pdlp-smoke.mps'); \
	ref = solve(lp, method='revised').objective; \
	objs = {m: solve(lp, method=m).objective for m in ('pdlp', 'gpu-pdlp')}; \
	assert all(abs(o - ref) <= 1e-4 * max(1.0, abs(ref)) for o in objs.values()), (ref, objs); \
	big = random_sparse_lp(400, 600, density=0.02, seed=1); \
	assert choose_method(big) == 'gpu-pdlp', choose_method(big); \
	auto = solve(lp, method='auto'); \
	assert auto.status.value == 'optimal'; \
	print('pdlp-smoke ok:', {'revised': ref, **objs}, 'auto->', choose_method(lp))"

obs-smoke:  ## end-to-end: spans on -> attribution exact -> Chrome validates
	$(PYTHONPATH_SRC) python -c "\
	from repro.obs import observing, serve_chrome_trace, to_json, from_json; \
	from repro.serve import ServeConfig, serve_trace, synthetic_trace; \
	from repro.trace.chrome import validate_chrome_trace; \
	trace = synthetic_trace(n_jobs=8, seed=7); \
	ctx = observing(); rec_ = ctx.__enter__(); \
	report = serve_trace(trace, ServeConfig(n_devices=2)); \
	ctx.__exit__(None, None, None); \
	recording = report.obs_recording; \
	recording.validate(); \
	attr = report.attribution(); \
	assert attr.jobs, 'no attributed jobs'; \
	bad = [j for j in attr.jobs if abs(sum(j.buckets.values()) - j.latency_seconds) > 1e-9]; \
	assert not bad, bad; \
	assert from_json(to_json(recording)).kept_traces == recording.kept_traces; \
	validate_chrome_trace(serve_chrome_trace(recording)); \
	print('obs-smoke ok:', recording.kept_traces, 'traces,', len(recording.spans), 'spans,', len(attr.jobs), 'jobs attributed')"
	$(PYTHONPATH_SRC) python -m repro explain --jobs 6 --seed 3 \
		--tree slowest --chrome-out /tmp/obs-smoke.chrome.json > /tmp/obs-smoke.txt
	@grep -q "fleet-wide latency attribution" /tmp/obs-smoke.txt
	@echo "obs-smoke explain ok"

fuse-smoke:  ## end-to-end: fused == unfused bit-identical, fewer launches
	$(PYTHONPATH_SRC) python tools/fuse_smoke.py

metrics-smoke:  ## end-to-end: smoke workload -> Prometheus text -> validate
	$(PYTHONPATH_SRC) python -m repro metrics --format prometheus \
		--out /tmp/metrics-smoke.prom
	$(PYTHONPATH_SRC) python -c "from repro.metrics import validate_prometheus_text; \
		n = validate_prometheus_text(open('/tmp/metrics-smoke.prom').read()); \
		print('metrics-smoke ok:', n, 'samples')"

gate:  ## bench regression gate: smoke snapshot vs committed baseline
	$(PYTHONPATH_SRC) python -m repro metrics --format json \
		--out /tmp/metrics-gate.json --gate $(METRICS_BASELINE)

gate-baseline:  ## re-record the committed gate baseline (review the diff!)
	$(PYTHONPATH_SRC) python -m repro metrics --format json \
		--out /tmp/metrics-gate.json --write-baseline $(METRICS_BASELINE)

bench:  ## evaluation tables; with W=<workload>, one 25 s host-clock perfbench run
ifdef W
	python3 perfbench/run.py --workload $(W) --seed 1 --seconds 25 --trace 0
else
	$(PYTHONPATH_SRC) python -m pytest benchmarks/ --benchmark-only -q
endif

bench-tests:  ## the perfbench harness's own tests (tiny instances)
	python3 -m pytest perfbench/tests

bench-pairs:  ## W=<workload> PARENT=<rev> [N=<pairs>] [SEED=<seed>]: paired parent/change perfbench runs
	python3 tools/bench_pairs.py --workload $(W) --parent $(PARENT) \
		$(if $(N),--pairs $(N)) $(if $(SEED),--seed $(SEED))

bench-batch:  ## the B1 batched-LP throughput experiment only
	$(PYTHONPATH_SRC) python -m pytest benchmarks/bench_b1_batch_throughput.py --benchmark-only -q
