GO ?= go

# The enforced statement-coverage floor for ./internal/... (percent).
# Raise it when coverage improves; never lower it to make a change pass.
COVER_FLOOR ?= 75.0

.PHONY: all build vet lint lint-json lint-fix test debug race cover fuzz bench bench-simcore bench-chdev bench-nas bench-diff fmt metrics-smoke loc

all: build vet lint test

build:
	$(GO) build ./...

# vet runs twice: the ibdebug-only files (the pool and store debug
# hooks, internal/debug's assertions) exist only under that tag.
vet:
	$(GO) vet ./...
	$(GO) vet -tags ibdebug ./...

# fclint enforces the determinism, credit-accounting and hot-path
# contracts (DESIGN.md, "Determinism contract & static enforcement"):
# any finding fails. Audited hot-path allocations are counted too: one
# `//fclint:allow hotalloc` stands outside the analyzer's own fixtures (the
# 4 KB commit page in ib/fabric.go), and a recycled object comes from
# store.Pool or mem.BufPool, not from a third. Deleting one lowers the
# number here; CI runs this target, so the count and its message live
# only here.
lint:
	$(GO) run ./cmd/fclint ./...
	@allows=$$(git ls-files '*.go' | grep -v '^internal/analysis/' | xargs grep -n '//fclint:allow hotalloc' || true); \
	n=$$(printf '%s\n' "$$allows" | grep -c . || true); \
	if [ "$$n" -ne 1 ]; then \
		echo "$$n //fclint:allow hotalloc outside internal/analysis, want 1: take the object from store.Pool or mem.BufPool"; \
		printf '%s\n' "$$allows"; exit 1; \
	fi

# lint-json emits the full finding list as a byte-stable JSON array, for
# CI artifacts and tooling.
lint-json:
	$(GO) run ./cmd/fclint -json ./...

# lint-fix deletes stale //fclint:allow comments in place.
lint-fix:
	$(GO) run ./cmd/fclint -fix ./...

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

# fuzz searches with every native fuzz target for FUZZTIME each (go test
# fuzzes one target per run), each against its naive model. Plain go test
# replays their seed corpora (testdata/fuzz); an input a search finds
# failing is written there, to be kept as a seed once it is fixed.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzPool$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzFifo$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzRing$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPool$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzHeader$$' -fuzztime $(FUZZTIME) ./internal/chdev
	$(GO) test -run '^$$' -fuzz '^FuzzRegCache$$' -fuzztime $(FUZZTIME) ./internal/mem
	$(GO) test -run '^$$' -fuzz '^FuzzBufPool$$' -fuzztime $(FUZZTIME) ./internal/mem
	$(GO) test -run '^$$' -fuzz '^FuzzRecvQueue$$' -fuzztime $(FUZZTIME) ./internal/ib
	$(GO) test -run '^$$' -fuzz '^FuzzQP$$' -fuzztime $(FUZZTIME) ./internal/ib
	$(GO) test -run '^$$' -fuzz '^FuzzSpec$$' -fuzztime $(FUZZTIME) ./internal/mpi
	$(GO) test -run '^$$' -fuzz '^FuzzInlineWake$$' -fuzztime $(FUZZTIME) ./internal/sim

bench:
	$(GO) test -bench=. -benchmem

# bench-simcore runs every event-core benchmark once, so none of them
# rots — among them BenchmarkProcContextSwitch (a wake that must switch),
# BenchmarkProcSleepInline (a wake taken in place) and
# BenchmarkHandlerChurn's pending=3, 80, 1024 and 3072 (a dispatch from
# the event heap at the depths pingpong, nas_mix and storm_1024 reach,
# and at 1 024); the repo benchmark's sim.* ladder rungs report their
# host cost. The event core's allocation gate is TestSteadyStateAllocGate
# in tier-1.
bench-simcore:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim

# bench-chdev runs the channel device's own benchmarks once each, so they
# do not rot: BenchmarkProgressPass (a progress pass on a device with 1,
# 48 and 1024 idle connections) and BenchmarkEstablish (one rank pair's
# establishment, static and rdma, at 1 and 4 endpoints) — per-call costs
# no ladder rung shows.
bench-chdev:
	$(GO) test -run '^$$' -bench 'BenchmarkProgressPass|BenchmarkEstablish' -benchtime 1x ./internal/chdev

# bench-nas times every NAS kernel at the repo benchmark's nas_mix
# geometry (class A, Static(1), 8 ranks, 16 for BT/SP at two per node),
# one whole world per iteration, with allocations. CI runs it as a smoke
# with BENCHTIME=1x; EXPERIMENTS.md has the per-kernel numbers.
BENCHTIME ?= 1s
bench-nas:
	$(GO) test -run '^$$' -bench BenchmarkKernel -benchmem -benchtime $(BENCHTIME) ./internal/nas

# bench-diff regenerates the four checked-in benchmark documents — three
# fcbench sweeps at the default worker count, and the paper's evaluation
# (BENCH_paper.json: the whole experiments suite, figures 2-10 and tables
# 1-2 at class A) — and compares them byte for byte with the committed
# files. Every number in them is virtual, so any difference is a change in
# simulated behaviour: fix it, or re-pin the file on purpose.
bench-diff:
	st=0; for t in micro scaling endpoints; do \
		$(GO) run ./cmd/fcbench -test $$t -json > /tmp/ibflow-$$t.json || exit 1; \
		diff -u BENCH_$$t.json /tmp/ibflow-$$t.json || st=1; \
	done; \
	$(GO) run ./cmd/experiments -json -parallel 1 > /tmp/ibflow-paper.json || exit 1; \
	diff -u BENCH_paper.json /tmp/ibflow-paper.json || st=1; \
	exit $$st

# metrics-smoke mirrors the CI step: an instrumented run must produce a
# parseable dump whose key set matches the checked-in golden inventory,
# for the classic device, the ring and an endpoint set. Endpoint 0 keeps
# the classic per-connection labels, so the endpoint inventory must
# strictly grow the classic one (-allow-new-keys).
metrics-smoke:
	$(GO) run ./cmd/fcbench -test latency -size 64 -iters 50 -spec 'ranks=2 scheme=static(100)' -metrics-out /tmp/ibflow-metrics.json
	$(GO) run ./cmd/fcstats /tmp/ibflow-metrics.json > /dev/null
	$(GO) run ./cmd/fcstats -keys /tmp/ibflow-metrics.json | diff - cmd/fcstats/testdata/latency_metrics_keys.golden
	$(GO) run ./cmd/fcbench -test latency -size 64 -iters 50 -spec 'ranks=2 scheme=rdma(8,1024)' -metrics-out /tmp/ibflow-metrics-rdma.json
	$(GO) run ./cmd/fcstats /tmp/ibflow-metrics-rdma.json > /dev/null
	$(GO) run ./cmd/fcstats -keys /tmp/ibflow-metrics-rdma.json | diff - cmd/fcstats/testdata/rdma_metrics_keys.golden
	$(GO) run ./cmd/fcbench -test latency -size 64 -iters 50 -spec 'ranks=2 scheme=static(100) eps=2' -metrics-out /tmp/ibflow-metrics-ep.json
	$(GO) run ./cmd/fcstats /tmp/ibflow-metrics-ep.json > /dev/null
	$(GO) run ./cmd/fcstats -keys /tmp/ibflow-metrics-ep.json | diff - cmd/fcstats/testdata/endpoints_metrics_keys.golden
	$(GO) run ./cmd/fcstats -allow-new-keys /tmp/ibflow-metrics.json /tmp/ibflow-metrics-ep.json

# loc reports the size metric ROADMAP aim 2 asks every PR to quote:
# non-test Go lines per package (tracked files only), then one total.
# `make loc BASE=<rev>` prints, per package, the lines at <rev>, the
# lines now and the delta, then the same for the total.
loc:
	@{ $(if $(BASE),git grep -c '' '$(BASE)' -- '*.go' ':!*_test.go' | sed 's/^[^:]*:/B /';) \
		git grep -c '' -- '*.go' ':!*_test.go' | sed 's/^/N /'; } | awk -v base='$(BASE)' '{ \
		n = $$2; sub(/.*:/, "", n); d = $$2; sub(/:[^:]*$$/, "", d); if (!sub(/\/[^\/]*$$/, "", d)) d = "."; \
		seen[d] = 1; if ($$1 == "B") { b[d] += n; tb += n } else { c[d] += n; tc += n } } \
		END { if (base == "") { for (d in seen) printf "%7d  %s\n", c[d], d | "sort -k2"; close("sort -k2"); \
			printf "%7d  total\n", tc; exit } \
		printf "%7s %7s %7s  %s\n", "base", "now", "delta", "package"; \
		for (d in seen) printf "%7d %7d %+7d  %s\n", b[d], c[d], c[d] - b[d], d | "sort -k4"; close("sort -k4"); \
		printf "%7d %7d %+7d  total\n", tb, tc, tc - tb }'

fmt:
	gofmt -w .
