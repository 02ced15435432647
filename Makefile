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
# shutdown in the one place: no ticker or timer callback outside
# internal/repair (register a row of the job table instead), no signal
# handler outside internal/daemon, no doc citing a flag that became a
# constant or went, and one
# daemon: a runtime is booted (daemon.New) only by srbd, which serves
# MySRB over its own broker, and no doc names the web daemon that had a
# catalog of its own.
GONE_FLAGS := sync-every|heat-decay|exemplar-threshold|breaker-threshold|breaker-cooldown|dial-timeout|mcat-sync-every|batch-period
GO_SRC := --include=*.go --exclude=*_test.go cmd internal examples bench

# The codec fence keeps the wire format known to internal/wire alone: the
# packages that send and serve requests encode args and bodies with
# wire.AppendBody / wire.DecodeBody, never with encoding/json directly.
WIRE_USERS := internal/client internal/server internal/report

# The create fence keeps one way for an object to enter the catalog: the
# packages that serve requests create through the broker's newObject
# (NewObjectID) and one Catalog.Ingest, never by Catalog.RegisterObject,
# which takes no metadata and hands out the ID too late to name files.
CREATE_USERS := internal/core internal/server internal/mysrb

# The read fence: internal/server streams an object from Broker.OpenGet, never reads it whole.
WHOLE_READS := GetTraced\(|broker\.Get\(|storage\.ReadSized\(

# The slot fence: a reply internal/server only encodes is built in its connection slot: a listing in the slot's []types.Stat (Broker.AppendList), a query answer in its mcat.Answer (Broker.QueryInto), never in a fresh one per request.
SLOT_BUILT := c\.b\.(List|QueryPartial)\(

# The presize fence: internal/server holds forwarded bytes (a peer's multiget reply, a bulkput batch) in a chunk.Spool, never in a buffer sized from a length a remote party announced.
PRESIZED := wire\.Buffer|Grow\(

# The lookup fence: a read resolves its path once (core.Broker.Lookup) and hands the row down: the replica selector's Owner(row) picks the server, and the broker opens the row with rm.OpenInto, never by path again.
LOOKUP_AGAIN_SERVER := localityOf\(
LOOKUP_AGAIN_CORE := rm\.(OpenRead|ReadAll)\(

# The selector fence: which replica serves a read, and so which server, is
# decided by one filter (replica.Manager.candidates), so internal/server
# tests no replica's state; and it reaches a peer one way, so its one
# Mux.CallTo is peerCall's.
REPLICA_FILTER := ReplicaClean
PEER_CALLS := \.CallTo\(

# The append fence: a catalog mutation reaches its journal only through commitLocked's append (journal.go), never a log( helper.
JOURNAL_WRITES := \blog\(|appendLine\(|\.w\.Write\(

# The entry fence: a catalog mutator builds its entry in a pooled line
# buffer (journal.go's line, which encodeLine's lines come from), so a
# mutation makes no object for its entry or the payload it points at.
NEW_ENTRY := &Entry\{

# The line fence: a journal or snapshot line is appended and read by
# hand, from one table per payload type (internal/mcat/line.go's
# entryFields, objectFields, ...), never by the reflective encoder, which
# makes an object for every time it meets, nor by the reflective
# decoder; canary.go fingerprints rows through objectFields too.
# legacy.go reads the version-1 snapshot, one JSON document, with
# json.Unmarshal; and line.go's unquote hands a string token with an
# escape in it to json.Unmarshal.
LINE_ENCODERS := json\.(Marshal|MarshalIndent|NewEncoder)\(
LINE_DECODERS := json\.(Unmarshal|NewDecoder)\(
LINE_UNQUOTE := ^internal/mcat/line\.go:[0-9]+:\s*_ = json\.Unmarshal\(tok, &s\)$$
LINE_FILES := $(filter-out %_test.go,$(wildcard internal/mcat/*.go))

# The lender fence: a scattered query's shard shares run on the parked
# workers of one lender (internal/mcat/shard/query.go), whose `go`
# statement is the only one in the package, so no query starts a
# goroutine per shard again.
GO_STMT := ^\s*go [A-Za-z_(]

# The reach fences: a call reaches a server through a pool it already
# has. A server, the daemon runtime and the catalog reach a peer through
# peerCall on the federation pool, never a client of their own; and in
# the client library a call that needs a conn of its own leases one
# (Pool.GetExclusive), so only Dial calls DialWith.
CLIENT_IMPORT := "gosrb/internal/client"
SERVER_SIDE := internal/server internal/daemon internal/mcat cmd/srbd
DIAL_WITH := DialWith\(
DIAL_WITH_OK := func DialWith\(|^internal/client/client\.go:[0-9]+:\s*return DialWith\(addr, user, password, nil\)$$

# The lending fence: a replica's storage handles are lent by their
# pools (package lend) and handed back by their Close, so a get or a put
# makes none: instrumented.Open's countingReader, instrumented.Create's
# and OpenAppend's countingWriter, memfs's reader and durable's Reader
# are built only in their pool's constructor.
LENT_HANDLES := &countingReader\{|&countingWriter\{|&reader\{|&Reader\{
LENT_FILES := $(filter-out %_test.go,$(wildcard internal/storage/*.go internal/storage/memfs/*.go internal/durable/*.go))
POOL_NEW := lend\.NewPool\([0-9]+, func\(\) \*[A-Za-z]+ \{ return &[A-Za-z]+\{\} \}\)

# The pool fence: a pooled object is lent by a lend.Pool, which a GC does
# not empty and whose bound caps what it keeps idle, never by a
# sync.Pool, which every GC empties and a request then refills.
SYNC_POOL := sync\.Pool\b
SYNC_POOL_DOC := ^[^:]+:[0-9]+:\s*//

# The audit fence: the trail is the broker's (core.Broker.Audit), so the catalog never imports internal/audit.
AUDIT_IMPORT := "gosrb/internal/audit"

# The file fence keeps one way to put a file on disk: a snapshot, shard
# map, telemetry file, incident file, replica file or download is
# published by internal/durable (Create, Replace), and a journal is a
# durable.Journal, never a rename, temp file or WriteFile of its own. The one
# rename outside it is posixfs's driver Rename op, which moves an object
# and publishes nothing.
FILE_WRITES := os\.(Rename|CreateTemp|WriteFile)\(
DRIVER_RENAME := ^internal/storage/posixfs/posixfs\.go:[0-9]+:\s*return mapErr\("rename", oldPath, os\.Rename\(oh, nh\)\)$$

# The compacting-log fence: a store's snapshot and journal are one
# durable.Journal, whose Resume and Compact hold the one generation rule
# (a journal its snapshot covers is emptied, not replayed), so nothing
# outside internal/durable opens a bare line log or empties one. A
# time.Duration's Truncate takes an argument; a log's takes none.
RAW_LOGS := durable\.OpenLog\(|\.Truncate\(\)

# The descriptor fence keeps raw syscalls behind one seam: a replica file
# is reached by its descriptor only in internal/durable's Linux file, so
# `unsafe` and syscall.Syscall appear nowhere else. The cross-vet keeps
# that file's build tag and durable's *os.File fallback compiling: darwin
# over everything but bench/ (whose stats.go does not build on windows),
# and windows, arm64 (the Linux file) and riscv64 (no SYS_RENAMEAT: the
# fallback) over durable and the drivers.
RAW_SYSCALLS := "unsafe"|syscall\.(Raw)?Syscall
RAW_SEAM := ^internal/durable/fd_linux\.go:
CROSS_PKGS := ./internal/durable ./internal/storage/...

# The format fence: every Go file is as gofmt writes it, so formatting
# never rides along with (or needs) a commit of its own.
lint: vet
	@if [ -n "$$(gofmt -l .)" ]; then gofmt -l .; echo "not gofmt-clean: run gofmt -w on the files above"; exit 1; fi
	@if grep -rnE 'time\.(Tick|NewTicker|AfterFunc)\(' --exclude-dir=repair $(GO_SRC); then echo "timer outside internal/repair: periodic work is a job-table row (internal/daemon)"; exit 1; fi
	@if grep -rnE 'json\.(Marshal|Unmarshal)\(' --include=*.go --exclude=*_test.go $(WIRE_USERS); then echo "JSON outside internal/wire: encode wire args and bodies with wire.AppendBody / wire.DecodeBody"; exit 1; fi
	@if grep -rnF 'signal.Notify(' --exclude-dir=daemon $(GO_SRC); then echo "signal handler outside internal/daemon: Runtime.Run owns shutdown"; exit 1; fi
	@if grep -rnF 'daemon.New(' $(GO_SRC) | grep -v '^cmd/srbd/'; then echo "one daemon: give srbd the listener"; exit 1; fi
	@if grep -rnF 'RegisterObject(' --include=*.go --exclude=*_test.go $(CREATE_USERS); then echo "RegisterObject in a request path: create through newObject + Catalog.Ingest (internal/core)"; exit 1; fi
	@if grep -rnE '$(JOURNAL_WRITES)' --include=*.go --exclude=*_test.go --exclude=journal.go internal/mcat; then echo "journal write outside journal.go: commit the entry through commitLocked, which appends it before it is applied"; exit 1; fi
	@if grep -rnE '$(NEW_ENTRY)' --include=*.go --exclude=*_test.go internal/mcat; then echo "build the entry in the line buffer (encodeLine)"; exit 1; fi
	@if grep -nE '$(LINE_ENCODERS)' $(LINE_FILES); then echo "append journal and snapshot lines with their table (entryFields.line)"; exit 1; fi
	@if grep -nE '$(LINE_DECODERS)' $(filter-out internal/mcat/legacy.go,$(LINE_FILES)) | grep -vE '$(LINE_UNQUOTE)'; then echo "read journal and snapshot lines with their table (readEntry)"; exit 1; fi
	@if [ "$$(grep -rnE '$(GO_STMT)' --include=*.go --exclude=*_test.go internal/mcat/shard | wc -l)" -gt 1 ]; then grep -rnE '$(GO_STMT)' --include=*.go --exclude=*_test.go internal/mcat/shard; echo "hand shard work to the lender (query.go)"; exit 1; fi
	@if grep -rnF '$(CLIENT_IMPORT)' --include=*.go --exclude=*_test.go $(SERVER_SIDE); then echo "a server reaches a server through peerCall"; exit 1; fi
	@if [ "$$(grep -rnE '$(DIAL_WITH)' --include=*.go --exclude=*_test.go internal/client | grep -vE 'func DialWith\(' | wc -l)" -ne 1 ] || grep -rnE '$(DIAL_WITH)' --include=*.go --exclude=*_test.go internal/client | grep -vE '$(DIAL_WITH_OK)'; then grep -rnE '$(DIAL_WITH)' --include=*.go --exclude=*_test.go internal/client; echo "a call that needs a conn of its own leases one: Pool.GetExclusive"; exit 1; fi
	@if grep -nE '$(LENT_HANDLES)' $(LENT_FILES) | grep -vE '$(POOL_NEW)'; then echo "a storage handle built outside its pool: take it from the pool, whose constructor is the one place it is made (package lend)"; exit 1; fi
	@if grep -rnE '$(SYNC_POOL)' $(GO_SRC) | grep -vE '$(SYNC_POOL_DOC)'; then echo "lend from a lend.Pool"; exit 1; fi
	@if grep -rnF '$(AUDIT_IMPORT)' --include=*.go --exclude=*_test.go internal/mcat; then echo "audit import in internal/mcat: the audit trail belongs to the broker (core.Broker.Audit)"; exit 1; fi
	@if grep -rnE '$(WHOLE_READS)' --include=*.go --exclude=*_test.go internal/server; then echo "whole-object read in internal/server: open with Broker.OpenGet and stream"; exit 1; fi
	@if grep -rnE '$(LOOKUP_AGAIN_SERVER)' --include=*.go --exclude=*_test.go internal/server || grep -rnE '$(LOOKUP_AGAIN_CORE)' --include=*.go --exclude=*_test.go internal/core; then echo "resolve a path once (Broker.Lookup) and pass the row down"; exit 1; fi
	@if grep -rnF '$(REPLICA_FILTER)' --include=*.go --exclude=*_test.go internal/server; then echo "replica filter in internal/server: ask the selector (Broker.Replicas().Owner)"; exit 1; fi
	@if [ "$$(grep -rnE '$(PEER_CALLS)' --include=*.go --exclude=*_test.go internal/server | wc -l)" -ne 1 ]; then grep -rnE '$(PEER_CALLS)' --include=*.go --exclude=*_test.go internal/server; echo "internal/server calls a peer only through peerCall, its one Mux.CallTo"; exit 1; fi
	@if grep -rnE '$(SLOT_BUILT)' --include=*.go --exclude=*_test.go internal/server; then echo "a reply the server only encodes is built in the slot: Broker.AppendList into session.stats, Broker.QueryInto into session.ans"; exit 1; fi
	@if grep -rnE '$(PRESIZED)' --include=*.go --exclude=*_test.go internal/server; then echo "a server holds forwarded bytes in a chunk.Spool, never presized from a remote length"; exit 1; fi
	@if grep -rnE '$(FILE_WRITES)' --include=*.go --exclude=*_test.go --exclude-dir=durable cmd internal examples | grep -vE '$(DRIVER_RENAME)'; then echo "file written outside internal/durable: publish it with durable.Replace or durable.Create, append with durable.Journal"; exit 1; fi
	@if grep -rnE '$(RAW_LOGS)' --exclude-dir=durable $(GO_SRC); then echo "a store's snapshot and journal go through durable's compacting log"; exit 1; fi
	@if grep -rnE '$(RAW_SYSCALLS)' --include=*.go cmd internal examples bench | grep -vE '$(RAW_SEAM)'; then echo "raw syscall outside internal/durable/fd_linux.go: reach files through durable"; exit 1; fi
	GOOS=darwin $(GO) vet ./internal/... ./cmd/...
	GOOS=windows $(GO) vet $(CROSS_PKGS)
	GOARCH=arm64 $(GO) vet $(CROSS_PKGS)
	GOARCH=riscv64 $(GO) vet $(CROSS_PKGS)
	@if grep -nE '`-($(GONE_FLAGS))\b' README.md DESIGN.md; then echo "docs cite a removed flag: state the constant"; exit 1; fi
	@if grep -n 'mysrbd' $(DOCS); then echo "docs name mysrbd: MySRB is srbd -web-addr"; exit 1; fi
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

# The suite under the race detector runs with both canaries on: a
# write into a catalog row a reader was handed panics with its path
# (internal/mcat/canary.go), and a frame handed back to the pool is
# poisoned, so a slice kept past it reads garbage (internal/wire/canary.go);
# nothing a lend.Pool is handed back is lent again, and a use of a
# storage handle or xfer after its Close or free panics (internal/lend). Then the suite again with both canaries
# and without -race: an allocation fence must stand down under a canary
# as it does under the race detector, and the run above, always under
# -race, would never show one that does not.
race:
	$(GO) test -race -tags rowcanary,framecanary ./...
	$(GO) test -count=1 -tags rowcanary,framecanary ./...

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

# Wire-protocol sweep: the handshake, the mux/pool race suite (waiter
# reuse among it), srb put -bulk's batches end to end and the batch ops'
# server tests, repeated under -race — the checkout/checkin, out-of-order
# demux and recycled-waiter races only surface across many interleavings.
# (The pipelined chaos e2e rides test-faults' 10x TestChaos loop.) Then
# the allocation budgets of the
# round trip and of a read through a peer, which the race detector's own
# allocations would swamp, without -race.
test-wire:
	$(GO) test -race -count=10 -run 'TestHandshake|TestMux|TestPool' ./internal/wire/
	$(GO) test -race -count=10 -run 'TestPutBulk' ./cmd/srb/
	$(GO) test -race -count=1 -run 'TestBulk|TestMultiGet' ./internal/server/
	$(GO) test -count=3 -run 'TestRoundTripAllocBudget|TestFederatedReadAllocBudget' ./internal/server/

# Exemplar-integrity sweep: the bucket→trace-ID retention race only
# surfaces across many interleavings; 10x under -race proves tail
# exemplars never tear (a trace ID paired with another observation's
# duration) and that threshold filtering stays exact. (The pool
# checkout-wait telemetry races ride test-wire's TestPool matcher; the
# phase-attribution chaos e2e rides test-faults' 10x TestChaos loop.)
test-phases:
	$(GO) test -race -count=10 -run 'TestExemplar' ./internal/obs/

# Sharded-catalog sweep: ring routing, scatter-gather, replication and
# reshard persistence, repeated under -race — the scatter fan-out, pulls
# reading the journal by position while appends and compactions land
# (TestPullRacesAppend), and the deadline-partial path are all
# cross-goroutine; a scatter timed out on a held shard must not be
# recycled under a later query (TestScatterReuseAfterDeadline), and
# concurrent queries' shares for one held shard each get a worker of the
# lender, whose idle workers exit (TestLender*). (The shard
# failover chaos e2e rides test-faults' 10x TestChaos loop.) Then the
# read path's allocation fences without -race, whose own allocations
# would swamp them: Select values cost per answer, not per hit, in the
# catalog and on a loopback round trip; a proxied get and a federated
# multiget make only what their callers keep; a warm root-scope query on 4
# shards makes only the answer it returns; a row lookup copies nothing; a
# put's structural check walks up its path and makes nothing; a
# decoded header's or args' strings come from one copy; a triplet, an
# annotation or a put makes only what the catalog keeps (a put's line,
# appended by hand, nothing; a value one path holds, no set), a tail
# exemplar nothing, and a boot's snapshot load only the rows it reads,
# about twelve objects a line. Then the catalog against itself: the query and
# mutation differential tests (a monolith against a 4-shard router, the
# router reopened at 3 and 1 shards, four goroutines querying one router
# at once), the journal and snapshot fixtures
# (the legacy JSON snapshot among them), the put as one transaction (a
# refused triplet, a failed journal append, a lost race for the path,
# and the put's journal bytes cut at every offset on a 1- and a 4-shard
# store, a container member's too, each cut booted, written to and
# booted again), every other create as the same one
# entry (through a linked collection, a refused triplet, the entries each
# create journals), every entry kind refused whole when its append fails,
# a refused delete keeping its bytes, 15 s of the LIKE matcher fuzzed
# against the recursive matcher it replaced, 15 s of arbitrary
# journal bytes through the one seam boot replay, replication and
# migration share, 15 s of arbitrary bytes through the snapshot
# loader a follower's catch-up takes off the wire, and 15 s of fuzzed
# entries through the hand-written line appender against json.Marshal,
# and 15 s of arbitrary and appended lines through the hand-written line
# reader against json.Unmarshal. (Minimizing an input
# as long as a journal would otherwise take the whole 15 s.) First, the
# durable-file layer every snapshot and journal sits on: publish and
# abort, the line log's concurrent appends and torn tail, replay's line
# limits, and the compacting log's generation rule at each crash point
# (TestCompactingLogCrashRule).
test-mcat:
	$(GO) test -race -count=10 ./internal/durable/
	$(GO) test -race -count=10 ./internal/mcat/shard/
	$(GO) test -count=3 -run 'TestLoadAllocates|TestQueryAllocates|TestGetObjectAllocatesNothing|TestCheckMandatoryAllocatesNothing|TestDecodeStringAllocs|TestRoundTripAllocBudget|TestFederatedReadAllocBudget|TestMutatorsKeepOnlyWhatTheyStore|TestPostingSetMapsOnlyFromTheSecondPath|TestEncodeIngestLineAllocatesNothing|TestIngestKeepsOnlyWhatItStores|TestExemplarStoreAllocs|TestScatterQueryAllocs' ./internal/mcat/ ./internal/mcat/shard/ ./internal/wire/ ./internal/server/ ./internal/obs/
	$(GO) test -race -count=10 -run 'Query|Like|Differential' ./internal/mcat/
	$(GO) test -race -count=1 -run 'TestJournalFixture|TestSnapshotFixture|TestEveryKindRefusedWhenAppendFails' ./internal/mcat/
	$(GO) test -race -count=1 -run 'TestRefusedMetadata|TestIngestJournalFailure|TestIngestLosingRace|TestPutCrashPoints|TestCreateThroughLinkedCollection|TestRegisterFileRefusedTriplet|TestCreateJournalEntries|TestRefusedDeleteKeepsBytes' ./internal/core/
	$(GO) test -run '^$$' -fuzz=FuzzLikeMatch -fuzztime=15s ./internal/mcat/
	$(GO) test -run '^$$' -fuzz=FuzzJournalReplay -fuzztime=15s -fuzzminimizetime=1s ./internal/mcat/
	$(GO) test -run '^$$' -fuzz=FuzzSnapshotLoad -fuzztime=15s -fuzzminimizetime=1s ./internal/mcat/
	$(GO) test -run '^$$' -fuzz=FuzzEntryLine -fuzztime=15s -fuzzminimizetime=1s ./internal/mcat/
	$(GO) test -run '^$$' -fuzz=FuzzEntryRead -fuzztime=15s -fuzzminimizetime=1s ./internal/mcat/

# Heat-observatory sweep: the top-K sketch (Zipf recall, decay,
# concurrent writers, rollup fold, persistence), the keyed table the
# sketch shares with the usage and peer tables (Record's allocations,
# the peer observatory's rules, Snapshot → Restore → Snapshot), the
# telemetry file fixture, and the replication-lag gauge and shard
# heat-join suites, repeated under -race — the tables are written from
# every request goroutine while snapshots, folds and decays run
# concurrently, so tears only surface across many interleavings. (The
# heat chaos e2e rides test-faults' 10x TestChaos loop.)
test-heat:
	$(GO) test -race -count=10 -run 'TestHeat|TestSLOReplag|TestTable|TestPeerObservatory|TestTelemetryFixture' ./internal/obs/
	$(GO) test -race -count=10 -run 'TestReplagGauges|TestPullSnapshotsCounter|TestHeatJoin' ./internal/mcat/shard/

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
# a read's one lookup per server and one account per layer, a container
# member read as a replica of its segment (failover, breakers), and a
# replicate that overlaps a write, repeated under -race — hand-offs of a
# connection's read side between the reader loop and a handler only
# misbehave across interleavings. The member-get allocation fence runs
# without -race, whose own allocations would swamp it.
test-stream:
	$(GO) test -race -count=10 ./internal/chunk/ ./internal/wire/
	$(GO) test -race -count=10 -run 'TestWriteFrom|TestFanout|TestReadHandle' ./internal/replica/
	$(GO) test -race -count=10 -run 'TestParallelGetRetries' ./internal/client/
	$(GO) test -race -count=10 -run 'TestReadResolvesOnce|TestGetHandleAccountsOnce|TestContainerOnLogicalResource|TestReplicateOverlapping' ./internal/server/ ./internal/core/
	$(GO) test -count=3 -run 'TestMemberGetStreams' ./internal/core/
	$(GO) test -race -count=10 -run 'TestStream|TestReadYourOwn|TestPipelined|TestRejected|TestRequestWithoutID|TestPut|TestReput|TestGetDriver|TestProxiedGet|TestStalled|TestReadRange|TestMultiGetRetryAfterMidStreamDrop|TestMultiGetOwnerManifestCannotPresize' ./internal/server/

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
