# gosrb build/check entry points. `make check` is the gate every PR
# must keep green: vet, full build, and the test suite under the race
# detector (the telemetry registry is exercised concurrently, so -race
# is load-bearing, not decorative).

GO ?= go

# Build stamp: surfaces on /healthz, `srb stat` and the srb_build_info
# Prometheus gauge. Override with `make VERSION=v1.2.3 build`.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X gosrb/internal/obs.Version=$(VERSION)"

.PHONY: all check lint vet build test race test-faults test-repair test-wire test-phases test-mcat test-heat test-telemetry test-stream bench bench-gate clean

all: check

# No prerequisite of check measures wall time: the timing fences are
# `make bench-gate`.
check: lint build race test-faults test-repair test-wire test-phases test-mcat test-heat test-telemetry test-stream

# Static analysis: go vet always, then a pinned staticcheck. The pin
# keeps every checkout on the same analyzer; when the binary is absent
# it is installed into the repo-local bin/. The install is best-effort:
# an offline build image prints a warning and check proceeds on go vet
# alone rather than failing on a network error.
STATICCHECK_VERSION ?= 2024.1.1
STATICCHECK := $(CURDIR)/bin/staticcheck

# The doc fence keeps the docs from drifting back to retired evidence: no
# BENCH_*.json ratio file, and no `make <target>` this Makefile lacks.
DOCS := README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md

# The lifecycle fence keeps periodic work on the one scheduler and
# shutdown in the one place: no ticker outside internal/repair (register
# a row of the job table instead), no signal handler outside
# internal/daemon, and no doc citing a flag that became a constant.
GONE_FLAGS := sync-every|heat-decay|exemplar-threshold|breaker-threshold|breaker-cooldown|dial-timeout|mcat-sync-every
GO_SRC := --include=*.go --exclude=*_test.go cmd internal examples bench

lint: vet
	@if grep -rnE 'time\.(Tick|NewTicker)\(' --exclude-dir=repair $(GO_SRC); then echo "ticker outside internal/repair: make it a row of the job table (internal/daemon)"; exit 1; fi
	@if grep -rnF 'signal.Notify(' --exclude-dir=daemon $(GO_SRC); then echo "signal handler outside internal/daemon: Runtime.Run owns shutdown"; exit 1; fi
	@if grep -nE '`-($(GONE_FLAGS))\b' README.md DESIGN.md; then echo "docs cite a removed flag: state the constant"; exit 1; fi
	@if grep -nE 'BENCH_[a-z]*\.json' $(DOCS); then echo "docs cite a retired BENCH_*.json ratio file"; exit 1; fi; for t in $$(grep -ohE '(`|^)make [a-z][a-z0-9-]*' $(DOCS) | cut -d' ' -f2 | sort -u); do grep -q "^$$t:" Makefile || { echo "docs mention undefined target: make $$t"; exit 1; }; done
	@if [ ! -x "$(STATICCHECK)" ] && command -v staticcheck >/dev/null 2>&1; then \
		cp "$$(command -v staticcheck)" "$(STATICCHECK)" 2>/dev/null || true; \
	fi; \
	if [ ! -x "$(STATICCHECK)" ]; then \
		echo "installing staticcheck@$(STATICCHECK_VERSION) into bin/"; \
		mkdir -p "$(CURDIR)/bin"; \
		GOBIN=$(CURDIR)/bin $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) \
			|| echo "staticcheck install failed (offline build image?); continuing on go vet"; \
	fi; \
	if [ -x "$(STATICCHECK)" ]; then \
		echo staticcheck ./...; "$(STATICCHECK)" ./...; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection sweep: the resilience and faultnet suites plus the
# chaos end-to-end, repeated under -race to prove the fixed-seed fault
# schedule replays deterministically.
test-faults:
	$(GO) test -race -count=1 ./internal/resilience/ ./internal/faultnet/
	$(GO) test -race -count=10 -run 'TestChaos' ./cmd/srbd/

# Repair-engine sweep: the engine unit suite, the journaled queue and
# replication-policy catalog tests, and the restart-recovery end-to-end
# (the async chaos e2e rides test-faults' 10x TestChaos loop).
test-repair:
	$(GO) test -race -count=1 ./internal/repair/ ./internal/mcat/
	$(GO) test -race -count=1 -run 'TestRepairQueueRestartRecovery|TestHealthzWedgedRepair' ./cmd/srbd/

# Wire-protocol sweep: the handshake, the mux/pool race suite and the
# batch-semantics tests, repeated under -race — the checkout/checkin and
# out-of-order demux races only surface across many interleavings. (The
# pipelined chaos e2e rides test-faults' 10x TestChaos loop.)
test-wire:
	$(GO) test -race -count=10 -run 'TestHandshake|TestMux|TestPool' ./internal/wire/
	$(GO) test -race -count=10 -run 'TestBatcher' ./internal/client/
	$(GO) test -race -count=1 -run 'TestBulk|TestMultiGet' ./internal/server/

# Exemplar-integrity sweep: the bucket→trace-ID retention race only
# surfaces across many interleavings; 10x under -race proves tail
# exemplars never tear (a trace ID paired with another observation's
# duration) and that threshold filtering stays exact. (The pool
# checkout-wait telemetry races ride test-wire's TestPool matcher; the
# phase-attribution chaos e2e rides test-faults' 10x TestChaos loop.)
test-phases:
	$(GO) test -race -count=10 -run 'TestExemplar' ./internal/obs/

# Sharded-catalog sweep: ring routing, scatter-gather, replication and
# reshard persistence, repeated under -race — the scatter fan-out, the
# journal-observer replication feed, and the deadline-partial path are
# all cross-goroutine. (The shard failover chaos e2e rides test-faults'
# 10x TestChaos loop.) Then the query evaluator: its differential test
# against the reference evaluator and a 4-shard router, and 15 s of the
# LIKE matcher fuzzed against the recursive matcher it replaced.
test-mcat:
	$(GO) test -race -count=10 ./internal/mcat/shard/
	$(GO) test -race -count=10 -run 'Query|Like|Differential' ./internal/mcat/
	$(GO) test -run '^$$' -fuzz=FuzzLikeMatch -fuzztime=15s ./internal/mcat/

# Heat-observatory sweep: the top-K sketch (Zipf recall, decay,
# concurrent writers, rollup fold, persistence) and the replication-lag
# gauge and shard heat-join suites, repeated under -race — the sketch is written
# from every request goroutine while snapshots, folds and decays run
# concurrently, so tears only surface across many interleavings. (The
# heat chaos e2e rides test-faults' 10x TestChaos loop.)
test-heat:
	$(GO) test -race -count=10 -run 'TestHeat|TestSLOReplag' ./internal/obs/
	$(GO) test -race -count=10 -run 'TestReplagGauges|TestReplogFallback|TestHeatJoin' ./internal/mcat/shard/

# Read-your-own-telemetry fence: every server test that asks for a
# request's telemetry right after its reply, 20 times over. dispatch
# records a request before it writes the last frame of the reply; when it
# recorded after (the seed), this failed most runs.
test-telemetry:
	$(GO) test -count=20 ./internal/server/

# Streaming data path sweep: the chunk copy loop, the wire's data
# frames, sinks and allocation fences, the replica fan-out, and the
# end-to-end suite (fixed memory for 4 concurrent large transfers, broken
# streams at client / member / driver / peer, pipelining beside a stream),
# repeated under -race — hand-offs of a connection's read side between
# the reader loop and a handler only misbehave across interleavings.
test-stream:
	$(GO) test -race -count=10 ./internal/chunk/ ./internal/wire/
	$(GO) test -race -count=10 -run 'TestWriteFrom|TestFanout|TestReadHandle' ./internal/replica/
	$(GO) test -race -count=10 -run 'TestParallelGetRetries' ./internal/client/
	$(GO) test -race -count=10 -run 'TestStream|TestReadYourOwn|TestPipelined|TestRejected|TestRequestWithoutID|TestPut|TestReput|TestGetDriver|TestProxiedGet|TestStalled|TestReadRange' ./internal/server/

# The end-to-end benchmark BENCHMARK.json declares (bench/README.md): the
# four workloads, one fresh process each, gated metrics by name. The
# paper-claim tables E1–E13 print with `go run ./cmd/srbbench`.
bench:
	$(GO) run ./bench -all

# The timing fences, kept out of `check`: bench/'s repeatability table
# (alternating sets of 5 runs per workload against BENCHMARK.json's
# bounds), then the wall-clock half of the telemetry-overhead budgets
# (internal/core TestOverheadBudget; its alloc half runs in every
# `go test`).
bench-gate:
	$(GO) run ./bench -all -repeat 5
	$(GO) test -count=1 -run TestOverheadBudget -v ./internal/core -overhead-time

clean:
	rm -rf bin
	$(GO) clean -testcache
