GO ?= go

# Per-target budget for `make fuzz`; CI uses FUZZTIME=30s. Targets are
# pkg:Fuzzname pairs because go test takes one -fuzz pattern per package.
FUZZTIME ?= 10s
FUZZ_TARGETS := \
	./internal/verify:FuzzNewInstance \
	./internal/verify:FuzzInstanceBuilder \
	./internal/verify:FuzzEPFSolve \
	./internal/verify:FuzzFacloc \
	./internal/verify:FuzzWarmResume \
	./internal/verify:FuzzAuditorCache \
	./internal/facloc:FuzzFaclocKernels \
	./internal/facloc:FuzzMoveGainBound \
	./internal/epf:FuzzBlockRows \
	./internal/mip:FuzzApplyDemandDelta \
	./internal/serve:FuzzRouteTable \
	./internal/serve:FuzzDemandBatch \
	./internal/serve:FuzzStateMatchesDense

# Fixed-seed instance for the telemetry smoke test; small enough to solve in
# seconds, large enough for a nontrivial convergence trajectory.
TRACE_SMOKE_ARGS := -videos 60 -vhos 8 -passes 40 -seed 1

# Fixed-seed daemon for the serve smoke: settings under which background
# re-solves converge, so the demand bursts vodload posts produce an
# audit-gated snapshot swap during the 2s run.
SERVE_SMOKE_ARGS := -videos 60 -vhos 8 -passes 200 -eps 0.02 -seed 1

.PHONY: build vet test race check bench bench-check bench-pairs bench-counts bench-json fuzz cover fmt fmt-check clean trace-smoke goldens serve-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on ./...

# The race run is the concurrency runtime's real gate: every solver fan-out,
# the CompareSchemes scheme pool and the cancellation paths execute under it.
race:
	$(GO) test -race -shuffle=on -timeout 30m ./...

check: build vet fmt-check race

# -run '^$' keeps the benchmark run from re-executing the whole test suite
# alongside the benchmarks.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The repository benchmark (BENCHMARK.json, bench/) is a module of its own,
# so `go build/vet/test ./...` at the root never see it: this target is what
# builds and tests it. The selfcheck runs the harness end to end twice at the
# serve-smoke shape and fails unless the exact-repeat counts, the objective
# and every replay agree. bench/run.sh builds into .bench_build/.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -race -shuffle=on ./...
	bash bench/run.sh --selfcheck

# The alternating-pair protocol of EXPERIMENTS.md ("Demand-to-swap and the
# repository benchmark") as a target: for every workload, N pairs of
# `bash bench/run.sh` in this checkout and in PARENT (a `git clone` of the
# parent commit), odd pairs parent first, appended to parent.<workload>.out /
# change.<workload>.out here; then one verdict table per workload. Pair i
# orders the /route stream with --seed i; UPDATE_SEED picks another
# demand-update stream; WORKLOAD=x runs that workload alone.
#   make bench-pairs PARENT=/root/scratch/parent N=10 [WORKLOAD=steady-hot] [UPDATE_SEED=2]
N ?= 10
WORKLOADS ?= steady-hot mixed-wide cold-scale
bench-pairs:
	@[ -f "$(PARENT)/bench/run.sh" ] || { echo "bench-pairs: PARENT=<checkout of the parent commit>"; exit 2; }
	@change=$$PWD; for w in $(or $(WORKLOAD),$(WORKLOADS)); do \
		args="--workload $$w --seconds 25 --trace 0 $(if $(UPDATE_SEED),--update-seed $(UPDATE_SEED))"; \
		for i in $$(seq 1 $(N)); do \
			first=$(PARENT) fo=parent.$$w.out second=$$change so=change.$$w.out; \
			[ $$((i % 2)) = 0 ] && first=$$change fo=change.$$w.out second=$(PARENT) so=parent.$$w.out; \
			(cd $$first && bash bench/run.sh $$args --seed $$i) >> $$change/$$fo || exit 1; \
			(cd $$second && bash bench/run.sh $$args --seed $$i) >> $$change/$$so || exit 1; \
			echo "$$w: pair $$i of $(N) done"; \
		done; \
	done; \
	for w in $(or $(WORKLOAD),$(WORKLOADS)); do \
		bash bench/run.sh --compare parent.$$w.out change.$$w.out || exit 1; \
	done

# "Same bits", mechanically: for every workload, one traced run (the exact-
# repeat counts) and one untraced run (objective_gb, which a traced run does
# not print) in PARENT and in this checkout, kept in counts.<side>.<workload>.out
# here; then a parent | change table of the counts that say the solver did the
# same work and served the same placement: every metric bench/spec.go marks
# exact, and objective_gb (TestBenchCountsCoverExactMetrics keeps the list
# whole). Exits 1 if any differs, except epf.lb_block_solves — the bound
# side's work, the one count a change to the bound step is allowed to move.
#   make bench-counts PARENT=/root/scratch/parent [WORKLOAD=mixed-wide] [UPDATE_SEED=2]
COUNTS := workload.requests mip.videos mip.nnz mip.patch_calls \
	epf.cold_passes epf.passes epf.blocks_optimized epf.lb_block_solves \
	epf.line_searches epf.round_resolves epf.warm_hit_ratio epf.warm_video_frac \
	epf.gap_pct epf.converged_ratio epf.replay_mismatch \
	serve.resolves_started serve.resolves_swapped serve.swap_ratio \
	serve.audit_rejected serve.unconverged serve.resolve_passes \
	serve.dirty_fraction serve.route_errors objective_gb
bench-counts:
	@[ -f "$(PARENT)/bench/run.sh" ] || { echo "bench-counts: PARENT=<checkout of the parent commit>"; exit 2; }
	@change=$$PWD; files=; for w in $(or $(WORKLOAD),$(WORKLOADS)); do \
		for side in parent change; do \
			dir=$$change; [ $$side = parent ] && dir=$(PARENT); \
			for trace in 1 0; do \
				(cd $$dir && bash bench/run.sh --workload $$w --seed 1 --seconds 25 --trace $$trace \
					$(if $(UPDATE_SEED),--update-seed $(UPDATE_SEED))) || exit 1; \
			done > counts.$$side.$$w.out; \
			files="$$files counts.$$side.$$w.out"; \
			echo "$$w: $$side done"; \
		done; \
	done; \
	awk -v names="$(COUNTS)" ' \
		BEGIN { n = split(names, want, " "); for (i = 1; i <= n; i++) is[want[i]] = 1 } \
		FNR == 1 { split(FILENAME, f, "."); side = f[2]; w = f[3]; if (!(w in seen)) { seen[w] = 1; ws[++nw] = w } } \
		$$1 in is { v[side, w, $$1] = $$2 } \
		END { \
			for (k = 1; k <= nw; k++) { \
				w = ws[k]; printf "%s\n  %-24s %16s %16s\n", w, "count", "parent", "change"; \
				for (i = 1; i <= n; i++) { \
					m = want[i]; p = v["parent", w, m]; c = v["change", w, m]; mark = ""; \
					if (p == "" || p != c) { \
						if (p != "" && c != "" && m == "epf.lb_block_solves") mark = "  (bound side: may move)"; \
						else { mark = "  DIFFERS"; bad = 1 } \
					} \
					printf "  %-24s %16s %16s%s\n", m, p, c, mark; \
				} \
			} \
			exit bad \
		}' $$files

# Refresh the committed benchmark records. The old files' numbers roll over
# into the new records' "baseline" sections, so after an optimization each
# BENCH_*.json answers "what did this change buy" per benchmark. -count 3
# with best-of selection suppresses scheduler noise. BENCH_epf.json covers
# the solver hot paths (internal/epf and the facloc kernels under it);
# BENCH_pipeline.json covers the week-long multi-period pipeline
# (BenchmarkRunMIPWeekCold vs ...Warm — the cross-period warm-start
# headline is their ns/op ratio); BENCH_scale.json covers the 1k/10k/100k
# catalog sweep through the sharded streaming pipeline (-count 1 — the long
# points dominate and best-of-3 would triple a multi-minute run).
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -count 3 ./internal/epf/ ./internal/facloc/ ./internal/par/ \
		| $(GO) run ./tools/benchjson -baseline BENCH_epf.json > BENCH_epf.json.tmp
	mv BENCH_epf.json.tmp BENCH_epf.json
	$(GO) test -run '^$$' -bench RunMIPWeek -benchmem -count 3 ./internal/core/ \
		| $(GO) run ./tools/benchjson -baseline BENCH_pipeline.json > BENCH_pipeline.json.tmp
	mv BENCH_pipeline.json.tmp BENCH_pipeline.json
	$(GO) test -run '^$$' -bench Scale -benchmem -count 1 -timeout 60m ./internal/experiments/ \
		| $(GO) run ./tools/benchjson -baseline BENCH_scale.json > BENCH_scale.json.tmp
	mv BENCH_scale.json.tmp BENCH_scale.json
	$(GO) test -run '^$$' -bench 'Serve|Resolve|DemandState' -benchmem -count 3 ./internal/serve/ \
		| $(GO) run ./tools/benchjson -baseline BENCH_serve.json > BENCH_serve.json.tmp
	mv BENCH_serve.json.tmp BENCH_serve.json

# go test accepts a single -fuzz pattern per invocation, so budgeted runs
# loop over the pkg:target pairs explicitly.
fuzz:
	for t in $(FUZZ_TARGETS); do \
		$(GO) test $${t%%:*} -run '^$$' -fuzz $${t##*:} -fuzztime $(FUZZTIME) || exit 1; \
	done

cover:
	$(GO) test -shuffle=on -coverprofile=coverage.out -coverpkg=./... ./...
	$(GO) tool cover -func=coverage.out | tail -1

# End-to-end telemetry gate: a seeded solve writes a JSONL trace, tracesum
# audits the bound series for monotonicity (-check) and the reduced summary
# must match the committed golden byte for byte. The summary contains only
# deterministic fields, so this passes on any machine at any worker count.
trace-smoke:
	$(GO) run ./cmd/vodplace $(TRACE_SMOKE_ARGS) -trace-out trace-smoke.jsonl > /dev/null
	$(GO) run ./tools/tracesum -check trace-smoke.jsonl > trace-smoke.out
	diff -u testdata/trace_smoke.golden trace-smoke.out

# Regenerate every committed golden after an intentional solver or
# output-format change: the trace-smoke summary, then the CLI and tool
# goldens (the packages whose tests take -update).
goldens:
	$(GO) run ./cmd/vodplace $(TRACE_SMOKE_ARGS) -trace-out trace-smoke.jsonl > /dev/null
	$(GO) run ./tools/tracesum -check trace-smoke.jsonl > testdata/trace_smoke.golden
	$(GO) test ./cmd/... ./tools/servestat ./tools/tracesum -run Golden -update

# End-to-end service gate: a seeded vodserved on an ephemeral port, 2s of
# vodload with demand bursts, then SIGTERM. vodload's -golden-out is a
# normalized boolean field subset (throughput nonzero, zero errors, rps
# floor met, swap observed) diffed against the committed golden; the raw
# JSON summary and daemon log are left behind as evidence. `wait` at the
# end asserts the daemon's exit code — 0 means the drain was clean.
# Telemetry legs: the daemon writes a lifecycle trace (-trace-out), /metrics
# is scraped while the daemon is still serving, and after shutdown servestat
# audits the trace invariants (-check fails the target on any violation),
# asserts the delta resolve path actually fired (-expect-delta: at least one
# swap must have rebuilt fewer route rows than the catalog holds) and
# renders the trace + scrape into serve-smoke.telemetry.out. The Prometheus
# scrape and the telemetry summary carry wall-clock values, so they are
# evidence artifacts, not goldens.
serve-smoke:
	$(GO) build -o vodserved.smoke ./cmd/vodserved
	$(GO) build -o vodload.smoke ./cmd/vodload
	$(GO) build -o servestat.smoke ./tools/servestat
	rm -f serve-smoke.addr
	./vodserved.smoke $(SERVE_SMOKE_ARGS) -addr 127.0.0.1:0 -addr-file serve-smoke.addr \
		-trace-out serve-smoke.trace.jsonl > serve-smoke.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 300); do [ -s serve-smoke.addr ] && break; sleep 0.1; done; \
	[ -s serve-smoke.addr ] || { echo "vodserved never came up"; cat serve-smoke.log; exit 1; }; \
	./vodload.smoke -addr $$(cat serve-smoke.addr) -duration 2s -concurrency 4 \
		-updates 2 -update-size 6 -seed 1 -min-rps 1000 -wait 30s \
		-json serve-smoke.json -golden-out serve-smoke.out \
		|| { cat serve-smoke.log; exit 1; }; \
	curl -sf http://$$(cat serve-smoke.addr)/metrics > serve-smoke.prom \
		|| { echo "metrics scrape failed"; cat serve-smoke.log; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "vodserved exited nonzero"; cat serve-smoke.log; exit 1; }
	diff -u testdata/serve_smoke.golden serve-smoke.out
	./servestat.smoke -check -expect-delta -metrics serve-smoke.prom serve-smoke.trace.jsonl > serve-smoke.telemetry.out
	cat serve-smoke.telemetry.out

fmt:
	gofmt -l -w .

# The gate `make check` and CI run: fails listing the files gofmt would
# rewrite.
fmt-check:
	@out="$$(gofmt -l .)"; [ -z "$$out" ] || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# Remove what building, testing and the smoke and benchmark targets leave
# behind (all of it gitignored); .bench_build/ is bench/run.sh's binary, Go
# build cache and temp directory.
clean:
	rm -rf .bench_build coverage.out
	rm -f trace-smoke.jsonl trace-smoke.out *.smoke
	rm -f parent.*out change.*out counts.*.out
	rm -f serve-smoke.addr serve-smoke.json serve-smoke.log serve-smoke.out \
		serve-smoke.trace.jsonl serve-smoke.prom serve-smoke.telemetry.out
