# Build and verification entry points. `make ci` is the gate every change
# must pass: formatting, vet, build, the full test suite, and the race
# detector over the concurrent paths (portfolio coloring, cancellation).

GO ?= go

# Benchmark snapshots for bench-compare (override on the command line).
BENCH_OLD ?= /tmp/bench_old.txt
BENCH_NEW ?= /tmp/bench_new.txt

.PHONY: all build fmt-check vet test race bench-check bench bench-color bench-rest bench-store bench-compare baseline-smoke shard-smoke obs-smoke live-smoke profile-smoke history-smoke dense-smoke verify fuzz-smoke ci

# Minimum statement coverage for the verification subsystem itself — the
# checker that everything else leans on must stay tested.
VERIFY_COVER_FLOOR ?= 70

# Wall-clock budget for each fuzz target in fuzz-smoke.
FUZZTIME ?= 30s

all: ci

build:
	$(GO) build ./...

# fmt-check fails, listing the offenders, when any tracked Go file is not
# gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-check builds and tests the repository benchmark (bench/). It is its
# own Go module, so the root `go test ./...` never compiles it; this target
# catches a signature change in cluster/search/core that would break it.
bench-check:
	cd bench && $(GO) test .

# bench emits benchstat-compatible output including the per-phase
# "<phase>-ns/op" columns; pipe two runs into benchstat to diff phases.
bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# bench-color runs the allocation-sensitive coloring benchmarks (the
# BenchmarkColor family at the root, the search package's coloring
# benchmarks, including the census-scale BenchmarkColoringCensus and
# BenchmarkColoringDense, whose infeasible REGION-core searches backtrack
# and report candidate enumerations per op (enums/op), the
# constraint package's Σ-wide pool and count pass against per-constraint
# scans, and the cluster package's enumerator construction and enumeration:
# large PopSyn targets, a dense-conflict-sized pool and an l-diversity
# criterion, each as materialized clusterings (form=candidates) and as the
# windows the search reads (form=windows)) with enough repetitions for
# benchstat.
bench-color:
	$(GO) test -bench 'BenchmarkColorPhase' -count 5 -run '^$$' .
	$(GO) test -bench 'BenchmarkColoring' -count 5 -run '^$$' ./internal/search/
	$(GO) test -bench 'BenchmarkPools' -count 5 -run '^$$' ./internal/constraint/
	$(GO) test -bench 'BenchmarkNewEnumerator|BenchmarkCandidates' -count 5 -run '^$$' ./internal/cluster/

# bench-rest runs the baseline phase's partitioner benchmarks: Mondrian
# (parallel and sequential) up to the full 299,285-row census, and on
# Pantheon and pop-syn, whose rows compress into distinct QI vectors far
# less, with enough repetitions for benchstat.
bench-rest:
	$(GO) test -bench 'BenchmarkPartitioners/Mondrian' -count 5 -run '^$$' ./internal/anon/

# bench-store runs the tuple-store benchmarks — chunked annotated-CSV
# loading, the group-by kernel (QIGroups, DistinctCount) and the in-place
# rendering of a census sample's Mondrian partition — with allocation
# counts and enough repetitions for benchstat.
bench-store:
	$(GO) test -bench 'BenchmarkReadAnnotatedCSV|BenchmarkQIGroups|BenchmarkDistinctCount' -count 5 -run '^$$' ./internal/relation/
	$(GO) test -bench 'BenchmarkSuppressGeneralize' -count 5 -run '^$$' ./internal/core/

# bench-compare diffs two benchmark snapshots with benchstat:
#
#	make bench-color > old.txt   # on the baseline commit
#	make bench-color > new.txt   # on the candidate
#	make bench-compare BENCH_OLD=old.txt BENCH_NEW=new.txt
#
# benchstat (golang.org/x/perf/cmd/benchstat) must already be on PATH; the
# target fails with instructions rather than installing anything.
bench-compare:
	@command -v benchstat >/dev/null 2>&1 || { \
		echo "benchstat not found; install golang.org/x/perf/cmd/benchstat"; exit 1; }
	benchstat $(BENCH_OLD) $(BENCH_NEW)

# baseline-smoke runs cmd/diva end to end at scale 0.05 under -verify with
# both the sequential and the parallel default partitioner settings, and
# checks the two outputs are byte-identical (the parallel Mondrian
# determinism contract at the CLI level). The same comparison runs on a
# 40,000-row sample, above the split grain of the engine's row passes
# (internal/par), once baseline-only and once with
# testdata/census-shard.sigma, so the rendering, pool, count and enumerator
# splits run too; these skip -verify, whose R ⊑ R′ matching is quadratic.
# It then runs the k-member baseline twice on the 15,000-row sample,
# requiring byte-identical outputs, and once more under distinct
# 2-diversity, all under -verify.
baseline-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/diva ./cmd/diva; \
	$(GO) build -o $$tmp/datagen ./cmd/datagen; \
	$$tmp/datagen -profile census -rows 15000 -seed 7 >$$tmp/census.csv; \
	$$tmp/diva -in $$tmp/census.csv -k 10 -seed 7 -parallelism 1 -verify \
		>$$tmp/seq.csv || { echo "baseline-smoke: sequential run failed"; exit 1; }; \
	$$tmp/diva -in $$tmp/census.csv -k 10 -seed 7 -verify \
		>$$tmp/par.csv || { echo "baseline-smoke: parallel run failed"; exit 1; }; \
	cmp -s $$tmp/seq.csv $$tmp/par.csv || { \
		echo "baseline-smoke: parallel output differs from sequential"; exit 1; }; \
	[ -s $$tmp/seq.csv ] || { echo "baseline-smoke: empty output"; exit 1; }; \
	$$tmp/datagen -profile census -rows 40000 -seed 7 >$$tmp/census40k.csv; \
	for sigma in "" "-constraints testdata/census-shard.sigma"; do \
		$$tmp/diva -in $$tmp/census40k.csv $$sigma -k 10 -seed 7 -parallelism 1 \
			>$$tmp/seq40k.csv || { echo "baseline-smoke: sequential 40k run $$sigma failed"; exit 1; }; \
		$$tmp/diva -in $$tmp/census40k.csv $$sigma -k 10 -seed 7 \
			>$$tmp/par40k.csv || { echo "baseline-smoke: parallel 40k run $$sigma failed"; exit 1; }; \
		cmp -s $$tmp/seq40k.csv $$tmp/par40k.csv || { \
			echo "baseline-smoke: parallel 40k output $$sigma differs from sequential"; exit 1; }; \
		[ -s $$tmp/seq40k.csv ] || { echo "baseline-smoke: empty 40k output $$sigma"; exit 1; }; \
	done; \
	for i in 1 2; do \
		$$tmp/diva -in $$tmp/census.csv -k 10 -seed 7 -baseline k-member -verify \
			>$$tmp/km$$i.csv || { echo "baseline-smoke: k-member run $$i failed"; exit 1; }; \
	done; \
	cmp -s $$tmp/km1.csv $$tmp/km2.csv || { \
		echo "baseline-smoke: k-member outputs differ between identical runs"; exit 1; }; \
	[ -s $$tmp/km1.csv ] || { echo "baseline-smoke: empty k-member output"; exit 1; }; \
	$$tmp/diva -in $$tmp/census.csv -k 10 -seed 7 -baseline k-member -ldiversity 2 -verify \
		>$$tmp/kml2.csv || { echo "baseline-smoke: k-member -ldiversity 2 run failed"; exit 1; }; \
	echo "baseline-smoke: ok (sequential and parallel outputs identical at 15k and 40k rows, k-member deterministic, -verify clean)"

# shard-smoke runs the component-wise engine end to end at the CLI level:
# a census sample with a Σ that decomposes into three components
# (testdata/census-shard.sigma), solved monolithically and with -shards 4,
# all under -verify. The two -shards 4 runs must be byte-identical (the
# engine's determinism contract); the monolithic run shares the -verify
# verdict but may publish a different — equally valid — relation. It also
# pins the driver's Options.Shards rules: -shards 1 runs the joint
# (monolithic) pipeline, so its output equals the monolithic output; every
# count ≥ 2 selects the same component-wise run, so -shards 2 equals
# -shards 4; and a component-wise run ignores -parallel, so -shards 4
# -parallel 3 equals -shards 4.
shard-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/diva ./cmd/diva; \
	$(GO) build -o $$tmp/datagen ./cmd/datagen; \
	$$tmp/datagen -profile census -rows 15000 -seed 7 >$$tmp/census.csv; \
	$$tmp/diva -in $$tmp/census.csv -constraints testdata/census-shard.sigma \
		-k 10 -seed 7 -verify >$$tmp/mono.csv \
		|| { echo "shard-smoke: monolithic run failed"; exit 1; }; \
	$$tmp/diva -in $$tmp/census.csv -constraints testdata/census-shard.sigma \
		-k 10 -seed 7 -shards 4 -verify >$$tmp/shard1.csv \
		|| { echo "shard-smoke: sharded run failed"; exit 1; }; \
	$$tmp/diva -in $$tmp/census.csv -constraints testdata/census-shard.sigma \
		-k 10 -seed 7 -shards 4 -verify >$$tmp/shard2.csv \
		|| { echo "shard-smoke: sharded rerun failed"; exit 1; }; \
	cmp -s $$tmp/shard1.csv $$tmp/shard2.csv || { \
		echo "shard-smoke: sharded output not deterministic"; exit 1; }; \
	[ -s $$tmp/shard1.csv ] || { echo "shard-smoke: empty output"; exit 1; }; \
	$$tmp/diva -in $$tmp/census.csv -constraints testdata/census-shard.sigma \
		-k 10 -seed 7 -shards 1 -verify >$$tmp/one.csv \
		|| { echo "shard-smoke: -shards 1 run failed"; exit 1; }; \
	cmp -s $$tmp/mono.csv $$tmp/one.csv || { \
		echo "shard-smoke: -shards 1 output differs from monolithic"; exit 1; }; \
	$$tmp/diva -in $$tmp/census.csv -constraints testdata/census-shard.sigma \
		-k 10 -seed 7 -shards 4 -parallel 3 -verify >$$tmp/shardpar.csv \
		|| { echo "shard-smoke: -shards 4 -parallel 3 run failed"; exit 1; }; \
	cmp -s $$tmp/shard1.csv $$tmp/shardpar.csv || { \
		echo "shard-smoke: -shards 4 -parallel 3 output differs from -shards 4"; exit 1; }; \
	$$tmp/diva -in $$tmp/census.csv -constraints testdata/census-shard.sigma \
		-k 10 -seed 7 -shards 2 -verify >$$tmp/shard2way.csv \
		|| { echo "shard-smoke: -shards 2 run failed"; exit 1; }; \
	cmp -s $$tmp/shard1.csv $$tmp/shard2way.csv || { \
		echo "shard-smoke: -shards 2 output differs from -shards 4"; exit 1; }; \
	echo "shard-smoke: ok (sharded runs byte-identical, -shards 2 = -shards 4, -shards 1 = monolithic, -parallel ignored when sharded, all -verify clean)"

# obs-smoke exercises the ops layer end to end: it runs cmd/diva with
# -listen on an ephemeral port against the paper's example (testdata/), keeps
# the process alive with -hold, scrapes /metrics, /debug/diva/runs, the run's
# profile summary and /debug/diva/incidents, and asserts the Prometheus
# exposition carries the run histograms, the runs endpoint a completed run,
# the profile endpoint run 1's outcome, and the incidents endpoint no stalls.
obs-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/diva ./cmd/diva; \
	$$tmp/diva -in testdata/patients.csv -constraints testdata/patients.sigma \
		-k 2 -seed 42 -listen 127.0.0.1:0 -hold 30s \
		>$$tmp/out.csv 2>$$tmp/err.log & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's#.*listening on http://##p' $$tmp/err.log | head -1); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	if [ -z "$$addr" ]; then \
		echo "obs-smoke: ops server never announced an address"; \
		cat $$tmp/err.log; exit 1; fi; \
	ok=""; \
	for i in $$(seq 1 100); do \
		curl -sf "http://$$addr/metrics" >$$tmp/metrics.txt || true; \
		if grep -q '^diva_runs_total{outcome="ok"} [1-9]' $$tmp/metrics.txt; then \
			ok=1; break; fi; sleep 0.1; \
	done; \
	if [ -z "$$ok" ]; then \
		echo "obs-smoke: /metrics never showed a completed run"; \
		cat $$tmp/metrics.txt; exit 1; fi; \
	grep -q '^diva_phase_duration_seconds_bucket{phase="color"' $$tmp/metrics.txt || { \
		echo "obs-smoke: /metrics missing phase histogram"; exit 1; }; \
	grep -q '^diva_search_heartbeats_total [1-9]' $$tmp/metrics.txt || { \
		echo "obs-smoke: /metrics missing search heartbeats"; exit 1; }; \
	curl -sf "http://$$addr/debug/diva/runs" >$$tmp/runs.json; \
	grep -q '"state": "ok"' $$tmp/runs.json || { \
		echo "obs-smoke: /debug/diva/runs has no completed run:"; \
		cat $$tmp/runs.json; exit 1; }; \
	curl -sf "http://$$addr/debug/diva/profile/1?format=summary" >$$tmp/profile.txt || { \
		echo "obs-smoke: /debug/diva/profile/1 not served"; exit 1; }; \
	grep -q 'run 1' $$tmp/profile.txt && grep -q 'outcome: ok' $$tmp/profile.txt || { \
		echo "obs-smoke: profile summary does not name run 1 and outcome ok:"; \
		cat $$tmp/profile.txt; exit 1; }; \
	curl -sf "http://$$addr/debug/diva/incidents" >$$tmp/incidents.json; \
	grep -q '"total": 0' $$tmp/incidents.json || { \
		echo "obs-smoke: /debug/diva/incidents does not serve total 0:"; \
		cat $$tmp/incidents.json; exit 1; }; \
	[ -s $$tmp/out.csv ] || { echo "obs-smoke: empty anonymized output"; exit 1; }; \
	echo "obs-smoke: ok (scraped http://$$addr)"

# live-smoke exercises the live-telemetry stack end to end against a held
# run: the SSE endpoint must replay at least one progress event and the
# terminal run-end event, carrying the run's metrics, to a follower that
# connects after the run finished, the flight-recorder dump (run-end
# metrics included) must validate with tracecheck -flight, divatop
# -once must render run 1 as ok with the STEPS the server reports for it at
# /debug/diva/runs, and the canonical "diva run" log record's experiment
# key must round-trip into the divahist ledger.
live-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/diva ./cmd/diva; \
	$(GO) build -o $$tmp/divatop ./cmd/divatop; \
	$(GO) build -o $$tmp/tracecheck ./cmd/tracecheck; \
	$(GO) build -o $$tmp/divahist ./cmd/divahist; \
	$$tmp/diva -in testdata/patients.csv -constraints testdata/patients.sigma \
		-k 2 -seed 42 -listen 127.0.0.1:0 -hold 30s -log-format json \
		-history-dir $$tmp/hist >$$tmp/out.csv 2>$$tmp/err.log & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's/.*"msg":"ops server listening","addr":"\([^"]*\)".*/\1/p' $$tmp/err.log | head -1); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	if [ -z "$$addr" ]; then \
		echo "live-smoke: ops server never announced an address"; \
		cat $$tmp/err.log; exit 1; fi; \
	curl -sN --max-time 3 "http://$$addr/debug/diva/events?run=all" >$$tmp/sse.txt || true; \
	grep -q '^event: progress' $$tmp/sse.txt || { \
		echo "live-smoke: SSE stream carried no progress event:"; \
		cat $$tmp/sse.txt; exit 1; }; \
	grep -q '^event: run-end' $$tmp/sse.txt || { \
		echo "live-smoke: SSE stream carried no terminal run-end event:"; \
		cat $$tmp/sse.txt; exit 1; }; \
	grep -A1 '^event: run-end' $$tmp/sse.txt | grep -q '"metrics"' || { \
		echo "live-smoke: SSE run-end frame carried no metrics:"; \
		cat $$tmp/sse.txt; exit 1; }; \
	curl -sf "http://$$addr/debug/diva/runs/1/events" >$$tmp/flight.json || { \
		echo "live-smoke: flight-recorder dump unavailable"; exit 1; }; \
	$$tmp/tracecheck -flight $$tmp/flight.json || { \
		echo "live-smoke: flight dump failed validation"; exit 1; }; \
	$$tmp/divatop -addr "$$addr" -once >$$tmp/top.txt || { \
		echo "live-smoke: divatop -once failed"; exit 1; }; \
	curl -sf "http://$$addr/debug/diva/runs" >$$tmp/runs.json || { \
		echo "live-smoke: /debug/diva/runs unavailable"; exit 1; }; \
	steps=$$(awk '/"id": 1,/ { f = 1 } f && /"steps":/ { gsub(/[^0-9]/, ""); print; exit }' $$tmp/runs.json); \
	row=$$(awk '$$1 == 1 { print $$4, $$7 }' $$tmp/top.txt); \
	if [ -z "$$steps" ] || [ "$$row" != "$$steps ok" ]; then \
		echo "live-smoke: divatop's run 1 row reads \"$$row\", want \"$$steps ok\" (steps from /debug/diva/runs):"; \
		cat $$tmp/top.txt $$tmp/runs.json; exit 1; fi; \
	key=$$(sed -n 's/.*"msg":"diva run".*"key":"\([^"]*\)".*/\1/p' $$tmp/err.log | head -1); \
	if [ -z "$$key" ]; then \
		echo "live-smoke: no canonical run record in the structured log:"; \
		cat $$tmp/err.log; exit 1; fi; \
	$$tmp/divahist -dir $$tmp/hist list >$$tmp/list.txt || { \
		echo "live-smoke: divahist list failed"; exit 1; }; \
	grep -q "$$key" $$tmp/list.txt || { \
		echo "live-smoke: canonical key $$key missing from the ledger:"; \
		cat $$tmp/list.txt; exit 1; }; \
	echo "live-smoke: ok (streamed http://$$addr, key $$key)"

# profile-smoke exercises the search profiler end to end. The success path
# runs cmd/diva with -profile against the paper's example and validates the
# artifact as Chrome trace-event JSON with cmd/tracecheck; the failure path
# runs the deliberately pruned instance (testdata/patients-pruned.sigma) with
# -explain and asserts the explainer names the upper-bound pruning verdict
# and a culprit constraint rather than claiming true infeasibility.
profile-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/diva ./cmd/diva; \
	$(GO) build -o $$tmp/tracecheck ./cmd/tracecheck; \
	$$tmp/diva -in testdata/patients.csv -constraints testdata/patients.sigma \
		-k 2 -seed 42 -profile $$tmp/prof.json >$$tmp/out.csv 2>$$tmp/err.log || { \
		echo "profile-smoke: profiled run failed"; cat $$tmp/err.log; exit 1; }; \
	$$tmp/tracecheck $$tmp/prof.json || { \
		echo "profile-smoke: -profile artifact is not valid trace-event JSON"; exit 1; }; \
	[ -s $$tmp/out.csv ] || { echo "profile-smoke: empty anonymized output"; exit 1; }; \
	if $$tmp/diva -in testdata/patients.csv -constraints testdata/patients-pruned.sigma \
		-strategy MinChoice -k 2 -seed 42 -explain \
		>/dev/null 2>$$tmp/explain.log; then \
		echo "profile-smoke: pruned instance unexpectedly succeeded"; exit 1; fi; \
	grep -q 'UPPER-BOUND PRUNING' $$tmp/explain.log || { \
		echo "profile-smoke: explainer missing upper-bound pruning verdict:"; \
		cat $$tmp/explain.log; exit 1; }; \
	grep -q 'NOT a proof' $$tmp/explain.log || { \
		echo "profile-smoke: explainer failed to caveat the pruning verdict:"; \
		cat $$tmp/explain.log; exit 1; }; \
	grep -Eq 'dominant_blocker=σ[0-9]' $$tmp/explain.log || { \
		echo "profile-smoke: explainer named no culprit constraint:"; \
		cat $$tmp/explain.log; exit 1; }; \
	echo "profile-smoke: ok (trace artifact valid, explainer named a culprit)"

# history-smoke exercises the run-history ledger and the perf-regression
# gate end to end: two identical ledgered cmd/diva runs on the paper's
# example, `divahist diff` confirming the pair compares as noise, `divahist
# gate` passing on the honest ledger, and — after awk inflates the last
# record's coloring phase to 9s, far past the noise floor — the gate exiting
# non-zero. A baseline-only run (no -constraints) must ledger exactly one ok
# record of its own, listed by `divahist list`. Finally a small divabench
# run writes a bench snapshot and its ledger record: the table's
# phase_seconds (summed from the diva_phase_duration_seconds histograms)
# must show coloring time, and `divahist gate -baseline` must pass the
# ledger against the snapshot.
history-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/diva ./cmd/diva; \
	$(GO) build -o $$tmp/divahist ./cmd/divahist; \
	$(GO) build -o $$tmp/divabench ./cmd/divabench; \
	$$tmp/diva -in testdata/patients.csv -constraints testdata/patients.sigma \
		-k 2 -seed 42 -verify -history-dir $$tmp/hist >$$tmp/a.csv || { \
		echo "history-smoke: first ledgered run failed"; exit 1; }; \
	$$tmp/diva -in testdata/patients.csv -constraints testdata/patients.sigma \
		-k 2 -seed 42 -verify -history-dir $$tmp/hist >$$tmp/b.csv || { \
		echo "history-smoke: second ledgered run failed"; exit 1; }; \
	[ "$$(wc -l < $$tmp/hist/ledger.jsonl)" = 2 ] || { \
		echo "history-smoke: expected 2 ledger records, got:"; \
		cat $$tmp/hist/ledger.jsonl; exit 1; }; \
	$$tmp/divahist -dir $$tmp/hist diff prev latest >$$tmp/diff.txt 2>$$tmp/diff.err || { \
		echo "history-smoke: divahist diff failed"; cat $$tmp/diff.err; exit 1; }; \
	grep -q 'confirmed regressions: 0' $$tmp/diff.txt || { \
		echo "history-smoke: identical runs compared as a regression:"; \
		cat $$tmp/diff.txt; exit 1; }; \
	$$tmp/divahist -dir $$tmp/hist gate >$$tmp/gate.txt || { \
		echo "history-smoke: gate failed on an honest ledger:"; \
		cat $$tmp/gate.txt; exit 1; }; \
	mkdir $$tmp/hist-bad; \
	awk -v n="$$(wc -l < $$tmp/hist/ledger.jsonl)" \
		'NR==n{gsub(/"phase":"color","duration_ns":[0-9]+/, \
			"\"phase\":\"color\",\"duration_ns\":9000000000")}1' \
		$$tmp/hist/ledger.jsonl >$$tmp/hist-bad/ledger.jsonl; \
	if $$tmp/divahist -dir $$tmp/hist-bad gate >$$tmp/gate-bad.txt; then \
		echo "history-smoke: gate missed a 9s coloring regression:"; \
		cat $$tmp/gate-bad.txt; exit 1; fi; \
	grep -q 'regression' $$tmp/gate-bad.txt || { \
		echo "history-smoke: failing gate did not name the regression:"; \
		cat $$tmp/gate-bad.txt; exit 1; }; \
	$$tmp/diva -in testdata/patients.csv -k 2 -seed 42 -verify \
		-history-dir $$tmp/hist-base >$$tmp/base.csv || { \
		echo "history-smoke: baseline-only ledgered run failed"; exit 1; }; \
	[ "$$(wc -l < $$tmp/hist-base/ledger.jsonl)" = 1 ] || { \
		echo "history-smoke: expected 1 baseline-only ledger record, got:"; \
		cat $$tmp/hist-base/ledger.jsonl; exit 1; }; \
	$$tmp/divahist -dir $$tmp/hist-base list >$$tmp/list-base.txt || { \
		echo "history-smoke: divahist list failed on the baseline-only ledger"; exit 1; }; \
	[ "$$(grep -c ' ok ' $$tmp/list-base.txt)" = 1 ] || { \
		echo "history-smoke: divahist list shows no one ok baseline-only run:"; \
		cat $$tmp/list-base.txt; exit 1; }; \
	$$tmp/divabench -exp fig4a -scale 0.01 -quiet -bench-out $$tmp/b.json \
		-history-dir $$tmp/hb >$$tmp/bench.txt || { \
		echo "history-smoke: divabench failed"; cat $$tmp/bench.txt; exit 1; }; \
	awk '/"phase_seconds"/ {in_ps = 1} \
		in_ps && /"color":/ {v = $$2; sub(/,$$/, "", v); if (v + 0 > 0) ok = 1} \
		in_ps && /}/ {in_ps = 0} END {exit !ok}' $$tmp/b.json || { \
		echo "history-smoke: bench table has no positive phase_seconds.color:"; \
		cat $$tmp/b.json; exit 1; }; \
	$$tmp/divahist -dir $$tmp/hb gate -baseline $$tmp/b.json >$$tmp/gate-bench.txt || { \
		echo "history-smoke: gate failed on the bench ledger vs its own snapshot:"; \
		cat $$tmp/gate-bench.txt; exit 1; }; \
	echo "history-smoke: ok (2 ledgered runs, diff noise-clean, gate trips on inflated color phase, baseline-only run ledgered, bench snapshot gates clean)"

# dense-smoke runs the CLI on a dense-conflict census fixture
# (testdata/census-dense.sigma — four overlapping cluster-forcing
# constraints at the densest satisfiable k) twice with -verify -explain.
# -verify must accept the published relation, and the two invocations must
# be byte-identical on stdout AND on stderr modulo wall times: the
# backtracking search over mutually blocking constraints must replay
# deterministically. It then runs the refuted fixture
# (testdata/census-refuted.sigma — the dense-conflict REGION core, which the
# bind phase proves infeasible by counting) twice with -explain: each run
# must exit non-zero with the no-diverse-relation error and the explainer's
# refuted verdict, and the two runs' stderr must be byte-identical modulo
# wall times.
dense-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/diva ./cmd/diva; \
	$(GO) build -o $$tmp/datagen ./cmd/datagen; \
	$$tmp/datagen -profile census -rows 200 -seed 7 >$$tmp/census.csv; \
	$$tmp/diva -in $$tmp/census.csv -constraints testdata/census-dense.sigma \
		-k 39 -seed 7 -verify -explain \
		>$$tmp/run1.csv 2>$$tmp/run1.log \
		|| { echo "dense-smoke: run failed"; cat $$tmp/run1.log; exit 1; }; \
	$$tmp/diva -in $$tmp/census.csv -constraints testdata/census-dense.sigma \
		-k 39 -seed 7 -verify -explain \
		>$$tmp/run2.csv 2>$$tmp/run2.log \
		|| { echo "dense-smoke: rerun failed"; cat $$tmp/run2.log; exit 1; }; \
	grep -q 'verify ok' $$tmp/run1.log || { \
		echo "dense-smoke: -verify did not accept the run's output:"; \
		cat $$tmp/run1.log; exit 1; }; \
	cmp -s $$tmp/run1.csv $$tmp/run2.csv || { \
		echo "dense-smoke: runs published different relations"; exit 1; }; \
	sed 's/ wall=[^ ]*//' $$tmp/run1.log >$$tmp/run1.norm; \
	sed 's/ wall=[^ ]*//' $$tmp/run2.log >$$tmp/run2.norm; \
	cmp -s $$tmp/run1.norm $$tmp/run2.norm || { \
		echo "dense-smoke: runs diverged on stderr (explain)"; \
		diff $$tmp/run1.log $$tmp/run2.log || true; exit 1; }; \
	[ -s $$tmp/run1.csv ] || { echo "dense-smoke: empty output"; exit 1; }; \
	for i in 1 2; do \
		if $$tmp/diva -in $$tmp/census.csv -constraints testdata/census-refuted.sigma \
			-k 10 -seed 7 -explain >/dev/null 2>$$tmp/ref$$i.log; then \
			echo "dense-smoke: refuted fixture run $$i unexpectedly succeeded"; exit 1; fi; \
		grep -q 'no diverse k-anonymous relation exists' $$tmp/ref$$i.log && \
		grep -q 'verdict: REFUTED' $$tmp/ref$$i.log || { \
			echo "dense-smoke: refuted fixture run $$i lacks the infeasibility error or the refuted verdict:"; \
			cat $$tmp/ref$$i.log; exit 1; }; \
		sed 's/ wall=[^ ]*//' $$tmp/ref$$i.log >$$tmp/ref$$i.norm; \
	done; \
	cmp -s $$tmp/ref1.norm $$tmp/ref2.norm || { \
		echo "dense-smoke: refuted runs diverged on stderr (explain)"; \
		diff $$tmp/ref1.log $$tmp/ref2.log || true; exit 1; }; \
	echo "dense-smoke: ok (-verify clean, both invocations byte-identical; refuted fixture proven infeasible before search, twice identically)"

# verify runs the differential-verification subsystem as its own gate: the
# invariant checker and brute-force oracle unit tests, the differential and
# metamorphic harnesses (several hundred micro-instances against the oracle),
# a fuzz smoke over the end-to-end CSV→anonymize path, all under -race, with
# go vet and a coverage floor on internal/verify. Seed with
# DIVA_TEST_SEED=<n> to reproduce a reported failure.
verify:
	$(GO) vet ./internal/verify/
	$(GO) test -race -coverprofile=/tmp/verify_cover.out ./internal/verify/
	@pct=$$($(GO) tool cover -func=/tmp/verify_cover.out | \
		awk '/^total:/ {sub(/%/, "", $$NF); print $$NF}'); \
	echo "internal/verify coverage: $$pct% (floor $(VERIFY_COVER_FLOOR)%)"; \
	awk "BEGIN{exit !($$pct >= $(VERIFY_COVER_FLOOR))}" || { \
		echo "verify: coverage $$pct% below floor $(VERIFY_COVER_FLOOR)%"; exit 1; }
	$(MAKE) fuzz-smoke

# fuzz-smoke runs each fuzz target for a bounded wall-clock slice, starting
# from the checked-in corpora under internal/verify/testdata/fuzz/ and
# internal/relation/testdata/fuzz/ (FuzzPoolsAndCounts seeds in code).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzAnonymizeEndToEnd' -fuzztime $(FUZZTIME) ./internal/verify/
	$(GO) test -run '^$$' -fuzz 'FuzzBruteForceOracle' -fuzztime $(FUZZTIME) ./internal/verify/
	$(GO) test -run '^$$' -fuzz '^FuzzReadAnnotatedCSV$$' -fuzztime $(FUZZTIME) ./internal/relation/
	$(GO) test -run '^$$' -fuzz '^FuzzCSVLoaderMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/relation/
	$(GO) test -run '^$$' -fuzz '^FuzzPoolsAndCounts$$' -fuzztime $(FUZZTIME) ./internal/constraint/

ci: fmt-check vet build test race bench-check verify obs-smoke live-smoke profile-smoke baseline-smoke shard-smoke history-smoke dense-smoke
