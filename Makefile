GO ?= go

# The enforced statement-coverage floor for ./internal/... (percent).
# Raise it when coverage improves; never lower it to make a change pass.
COVER_FLOOR ?= 75.0

.PHONY: all build vet lint lint-json lint-fix lint-baseline test debug race cover bench bench-simcore bench-nas bench-diff fmt metrics-smoke scaling-smoke endpoints-smoke loc

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fclint enforces the determinism, credit-accounting and hot-path
# contracts (DESIGN.md, "Determinism contract & static enforcement").
# The goroutine-to-handler migration drained fclint.baseline to empty;
# it must stay that way — any finding fails, and so does re-adding
# baseline entries. Audited hot-path allocations are ratcheted too: two
# `//fclint:allow hotalloc` stand outside the analyzer's own fixtures (the
# 4 KB commit page in ib/fabric.go, the typed error of a frozen QP in
# ib/qp.go), and a recycled object comes from store.Pool or mem.BufPool,
# not from a third. Deleting one lowers the number here and in ci.yml.
lint:
	$(GO) run ./cmd/fclint -baseline fclint.baseline ./...
	@if grep -v '^#' fclint.baseline | grep -q .; then \
		echo "fclint.baseline must stay empty (the goroutine-to-handler migration drained it):"; \
		grep -v '^#' fclint.baseline; exit 1; \
	fi
	@allows=$$(git ls-files '*.go' | grep -v '^internal/analysis/' | xargs grep -n '//fclint:allow hotalloc' || true); \
	n=$$(printf '%s\n' "$$allows" | grep -c . || true); \
	if [ "$$n" -ne 2 ]; then \
		echo "$$n //fclint:allow hotalloc outside internal/analysis, want 2: take the object from store.Pool or mem.BufPool"; \
		printf '%s\n' "$$allows"; exit 1; \
	fi

# lint-json emits the full finding list (baselined included) as a
# byte-stable JSON array, for CI artifacts and tooling.
lint-json:
	$(GO) run ./cmd/fclint -json -baseline fclint.baseline ./...

# lint-fix deletes stale //fclint:allow comments in place.
lint-fix:
	$(GO) run ./cmd/fclint -fix ./...

# lint-baseline re-captures the baseline after burning down an offender.
# Never run it to absorb a new finding — fix the finding instead.
lint-baseline:
	$(GO) run ./cmd/fclint -baseline fclint.baseline -write-baseline ./...

test:
	$(GO) test ./...

# debug arms the ibdebug per-mutation invariant assertions.
debug:
	$(GO) test -tags ibdebug ./...

race:
	$(GO) test -race ./...

# cover fails if total statement coverage of internal/... drops below
# COVER_FLOOR (defined above).
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below floor $(COVER_FLOOR)%"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem

# bench-simcore mirrors the CI step: every event-core benchmark must
# still run (one-iteration smoke), and the steady-state allocation gate
# must hold — the handler fast path allocates nothing, the closure path
# only the user's closure. Full numbers live in BENCH_simcore.json (see
# README for regeneration).
bench-simcore:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim
	IBFLOW_ALLOC_GATE=1 $(GO) test -count=1 -run TestSteadyStateAllocGate -v ./internal/sim

# bench-nas times every NAS kernel at the repo benchmark's nas_mix
# geometry (class A, Static(1), 8 ranks, 16 for BT/SP at two per node),
# one whole world per iteration, with allocations. CI runs it as a smoke
# with BENCHTIME=1x; EXPERIMENTS.md has the per-kernel numbers.
BENCHTIME ?= 1s
bench-nas:
	$(GO) test -run '^$$' -bench BenchmarkKernel -benchmem -benchtime $(BENCHTIME) ./internal/nas

# bench-diff regenerates the scaling and endpoint documents (quick sweeps
# are not comparable to the committed full sweeps, so this runs the full
# ones, serially so the allocs/msg column is meaningful) and diffs them
# against the checked-in baselines: virtual time, buffer memory and
# allocations per message must not regress past 5%, and the scaling
# sweep's five 1024-rank on-demand cells — connection set-up inside the
# measured run — may not allocate more than 2 objects per message,
# whatever the baseline says (fcbench -diff, allocGate).
bench-diff:
	$(GO) run ./cmd/fcbench -test scaling -parallel 1 -json > /tmp/ibflow-scaling-new.json
	$(GO) run ./cmd/fcbench -diff BENCH_scaling.json /tmp/ibflow-scaling-new.json
	$(GO) run ./cmd/fcbench -test endpoints -parallel 1 -json > /tmp/ibflow-endpoints-new.json
	$(GO) run ./cmd/fcbench -diff BENCH_endpoints.json /tmp/ibflow-endpoints-new.json

# metrics-smoke mirrors the CI step: an instrumented run must produce a
# parseable dump whose key set matches the checked-in golden inventory.
metrics-smoke:
	$(GO) run ./cmd/fcbench -test latency -size 64 -iters 50 -scheme static -metrics-out /tmp/ibflow-metrics.json
	$(GO) run ./cmd/fcstats /tmp/ibflow-metrics.json > /dev/null
	$(GO) run ./cmd/fcstats -keys /tmp/ibflow-metrics.json | diff - cmd/fcstats/testdata/latency_metrics_keys.golden
	$(GO) run ./cmd/fcbench -test latency -size 64 -iters 50 -scheme rdma -prepost 8 -metrics-out /tmp/ibflow-metrics-rdma.json
	$(GO) run ./cmd/fcstats /tmp/ibflow-metrics-rdma.json > /dev/null
	$(GO) run ./cmd/fcstats -keys /tmp/ibflow-metrics-rdma.json | diff - cmd/fcstats/testdata/rdma_metrics_keys.golden

# scaling-smoke mirrors the CI step: the connection-scaling benchmark in
# quick mode — now including a 128-rank fat-tree row — must complete and
# render (sub-linearity itself is asserted by internal/bench's
# TestConnScalingSharedSubLinear), and the 128-rank world-level
# allocation gate must hold: steady-state traffic allocates only the
# storm main's own payloads, nothing per message in the progress engine —
# at most 2 objects per eager message under all five schemes (amortized
# pool and slab refills) and at most 0.25 per rendezvous under both
# transport shapes (write and read), whose state is pooled: one &T{} on
# either path fails the step.
# Settling is free, so the scale cell is also audited on every push: the
# 128-rank fat-tree storm with on-demand connections settles, passes
# World.Audit under all five schemes, and Settle adds nothing where
# nothing was left behind. The set-up budget rides along: in the same
# 128-rank on-demand storm at 2 messages per peer, one connection end
# costs World.Run at most 5 KB and 4 objects under every scheme, and the
# finished world retains at most 4.2 KB per end (what the repo benchmark
# reports as live_heap_mb) — an end is one object, a posted receive a
# descriptor, a ring slot memory only once written.
scaling-smoke:
	$(GO) run ./cmd/fcbench -test scaling -quick
	IBFLOW_ALLOC_GATE=1 $(GO) test -count=1 -run 'TestScalingSteadyAllocGate|TestConnSetupBudget|TestSettleAddsNothingWhenClean' -v ./internal/bench

# endpoints-smoke mirrors the CI step: the endpoint-contention sweep in
# quick mode must complete and render; an endpoint-instrumented run must
# produce a parseable dump whose key set matches the checked-in golden
# AND strictly grows the classic single-endpoint inventory (endpoint 0
# keeps the classic per-connection labels, so -allow-new-keys diffs the
# two cleanly); and the endpoint-set world-level allocation gate must
# hold: endpoint selection adds zero marginal allocation per message.
endpoints-smoke:
	$(GO) run ./cmd/fcbench -test endpoints -quick
	$(GO) run ./cmd/fcbench -test latency -size 64 -iters 50 -scheme static -metrics-out /tmp/ibflow-metrics-classic.json
	$(GO) run ./cmd/fcbench -test latency -size 64 -iters 50 -scheme static -endpoints 2 -metrics-out /tmp/ibflow-metrics-ep.json
	$(GO) run ./cmd/fcstats /tmp/ibflow-metrics-ep.json > /dev/null
	$(GO) run ./cmd/fcstats -keys /tmp/ibflow-metrics-ep.json | diff - cmd/fcstats/testdata/endpoints_metrics_keys.golden
	$(GO) run ./cmd/fcstats -allow-new-keys /tmp/ibflow-metrics-classic.json /tmp/ibflow-metrics-ep.json
	IBFLOW_ALLOC_GATE=1 $(GO) test -count=1 -run TestEndpointsSteadyAllocGate -v ./internal/bench

# loc reports the size metric ROADMAP aim 2 asks every PR to quote:
# non-test Go lines per package (tracked files only), then one total.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | xargs wc -l | awk '$$2 != "total" { \
		d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; pkg[d] += $$1; t += $$1 } \
		END { for (d in pkg) printf "%7d  %s\n", pkg[d], d | "sort -k2"; close("sort -k2"); \
		printf "%7d  total\n", t }'

fmt:
	gofmt -w .
