GO ?= go

.PHONY: all build vet test loc rtbench rtbench-smoke rtdbd-smoke bench-smoke race race-grid race-rtdb race-net race-repl race-spec race-gc race-recovery race-shard race-partition race-patterns bench bench-json fuzz torture torture-short torture-failover torture-shard torture-partition soak-short examples experiments clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Go line counts, non-test and test, for the root module (bench/ is its own
# module), the serving stack's packages and the fault-injection harness: net
# negative line counts are a success metric (ROADMAP), so a PR that claims
# one quotes this before and after. internal/rtdb/spec is the conformance
# suite, almost all test lines.
LOC_DIRS = internal/rtdb/log internal/rtdb/client internal/rtdb/netserve internal/rtdb/replica internal/rtdb/server internal/rtdb/sub internal/rtdb/spec internal/rtwire cmd/rtdbd cmd/rtdbload internal/rtdb/torture cmd/rttorture internal/faultfs internal/faultnet
loc:
	@for d in . $(LOC_DIRS); do \
		src=$$(find $$d -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l); \
		tst=$$(find $$d -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l); \
		printf '%-26s %6d non-test %6d test\n' $$d $$src $$tst; \
	done

race:
	$(GO) test -race ./internal/parallel/ ./internal/adhoc/... ./internal/word/

# Grid/runner differential tests under the race detector: exercises the
# kinematics cache and the parallel scenario runner concurrently.
race-grid:
	$(GO) test -run=TestGrid -race ./internal/adhoc/...

# rtdbd server + WAL under the race detector: includes the 64-session
# hammer that asserts every book (DESIGN §7).
race-rtdb:
	$(GO) test -race ./internal/rtdb/log/ ./internal/rtdb/server/

# The TCP serving layer under the race detector: frame codec, listener,
# client package, and the 32-client loopback hammer that asserts the
# books end-to-end over the wire, plus the mid-flight drain, the
# subscription attach/cancel churn hammer on one connection's writer, and the
# Serve/Close churn that orders the accept loop's wg.Add against the drain.
race-net:
	$(GO) test -race ./internal/rtwire/ ./internal/rtdb/netserve/ ./internal/rtdb/client/

# WAL-streaming replication under the race detector: the replica package
# (the follower's protocol against a scripted primary, rebuild and batched
# shipping) plus the torture failover sweep's short configuration.
# The REPL- rows of the conformance suite run under make race-spec. CI runs
# this target.
race-repl:
	$(GO) test -race ./internal/rtdb/replica/
	$(GO) test -race -run=TestFailover ./internal/rtdb/torture/

# Group commit under the race detector: the 64-writer fsync-batching
# hammer (mid-run Sync/CloseWindow antagonist, mid-run Close, goroutine
# leak checks), the window-edge table tests, and the server's ack-barrier
# test that pins "reply only after the covering fsync".
race-gc:
	$(GO) test -race -run='GroupCommit|Group(Window|Single|Firm|Batch|FsyncFailure|Close|Tail|Amortized)|AppendBatch|BatchedShipping|CommitBatchOneWrite|WriteFaultTwice' ./internal/rtdb/log/ ./internal/rtdb/server/ ./internal/rtdb/replica/

# Recovery under the race detector at one, two and four processors: at one
# a snapshot loads as the one loop, at two and four its samples are walked
# as spans on their own goroutines (TestSnapshotSpansMatchOneLoop holds the
# two to each other), so the loader's fuzz seeds, damage and golden rows
# and Open's tests run on both paths. TestSnapshotLoadAllocatesPerRunNotPerSample
# measures inside testing.AllocsPerRun, which runs at one processor, so it
# passes walkSnapshot 1 and 4 itself and requires spans at 4.
race-recovery:
	$(GO) test -race -cpu 1,2,4 -run='Snapshot|Open' ./internal/rtdb/log/

# Keyspace sharding under the race detector: the 8-shard × 32-writer
# hammer (concurrent samples, queries, ticks, and flushes, each placed on
# its owning shard, against the cross-shard conservation sums), the
# differential suite in netserve that runs one workload over the wire into
# N listeners and into one unsharded server behind one listener, the
# sharded failover sweep with its placement-announcing Welcome, and the
# conformance suite's SHARD- rows (placement, metrics rows, per-shard
# replication).
race-shard:
	$(GO) test -race -run='TestRaceShard|TestShard' ./internal/rtdb/server/
	$(GO) test -race -run='TestShard|TestFailoverSharded' ./internal/rtdb/netserve/ ./internal/rtdb/torture/
	$(GO) test -race -run='TestSpecs/shards' ./internal/rtdb/spec/

# The conformance suite under the race detector — every SUB-, WIRE-, REPL-
# and SHARD- row on every target it applies to — with the sub package's
# queue/table and the 32-subscriber × 4-writer hammer with a mid-flight
# listener drain and resume.
race-spec:
	$(GO) test -race ./internal/rtdb/sub/ ./internal/rtdb/spec/

# No silent race target: every -run pattern above must match a test in each
# package it names (go test -list), and a TestSpecs pattern's levels must
# name the suite's targets and requirement IDs, or the target would pass
# running nothing. CI runs this target.
race-patterns:
	bash scripts/race-patterns.sh Makefile

# Full crash-torture sweep: deterministic fault points (power cuts at
# every mutating op, transient EIO / torn writes on every data write,
# snapshot rename failures, the sharded-deployment victim sweep, and the
# concurrent server chaos run) across 3 seeds. Every recovery is checked
# against the deep-equal recovery invariant; a failure prints a
# one-command seed reproduction.
torture:
	$(GO) run ./cmd/rttorture -mode all -seeds 3 -events 90 -v

# Bounded sweep for CI: the torture + faultfs test suites under -race, then
# a single-seed strided sweep of every fault family, then the groupcommit and
# shard rows under -nosync.
torture-short:
	$(GO) test -race -count=1 ./internal/faultfs/ ./internal/rtdb/torture/
	$(GO) run ./cmd/rttorture -mode all -seeds 1 -events 60 -stride 2
	$(GO) run ./cmd/rttorture -mode crash -seeds 1 -events 60 -fsync-window 50us
	$(GO) run ./cmd/rttorture -mode eio -seeds 1 -events 60 -fsync-window 50us
	$(GO) run ./cmd/rttorture -mode groupcommit -seeds 1 -events 30 -nosync
	$(GO) run ./cmd/rttorture -mode shard -seeds 1 -events 30 -nosync

# Full shard sweep: crash one shard's WAL at every fault point of a
# 4-shard deployment — rotating the victim through every shard — while the
# others keep committing. Each point checks the victim's durability bound
# (acked ≤ n ≤ acked+1), exact survivor recovery, the cross-shard
# sum of recovered events, and that the group's recovered horizon never regresses.
torture-shard:
	$(GO) run ./cmd/rttorture -mode shard -seeds 3 -events 160 -v

# Full failover sweep: kill the primary at every WAL fault point, promote
# the replica, and assert the durability bound (acked ≤ survived ≤ acked+1),
# epoch fencing, and every book on both servers at each point.
torture-failover:
	$(GO) run ./cmd/rttorture -mode failover -seeds 3 -events 90 -v

# Full partition sweep: arm one seeded network fault — a mid-frame cut, a
# silent drop, a corrupted byte, a slow-loris stall, a one- or two-way
# blackhole, or a full primary isolation with mid-partition failover — at
# every fabric write op of a client/primary/replica stack, and check the
# wire invariants at each point: zero lost acked writes, epoch fencing
# against the deposed primary, subscription cursor monotonicity,
# every book on both sides of the cut, and post-heal liveness. A failing
# point prints its `-seed S -at N` reproduction.
torture-partition:
	$(GO) run ./cmd/rttorture -mode partition -seeds 3 -events 160 -v

# Race-grade wire chaos: 32 clients + 1 replica hammer a primary through a
# chaos-shaped faultnet fabric (split writes, jittered delivery) while a
# fault monkey cuts, stalls, and partitions links at random — every
# watchdog, eviction, redial, and teardown path under the race detector,
# plus the short deterministic sweep, netserve's corrupted-frame,
# dropped-header and one-way-partition tests, the conformance suite's WIRE-
# rows on its fabric targets (corruption, one-way partitions, silence per
# frame, write-timeout eviction), and the client-teardown suites.
race-partition:
	$(GO) test -race -count=1 -run='TestPartitionHammer|TestPartitionSweepShort|TestPartitionPointRepro' ./internal/rtdb/torture/
	$(GO) test -race -count=1 -run='TestCorruptedFrame|TestDropSpan|TestHeartbeatOneWay' ./internal/rtdb/netserve/
	$(GO) test -race -count=1 -run='TestSpecs/(faultnet|standby|promoted)/WIRE' ./internal/rtdb/spec/
	$(GO) test -race -count=1 -run='TestClose(AfterPartitionCut|DuringSlowLoris)' ./internal/rtdb/client/
	$(GO) test -race -count=1 ./internal/faultnet/

# Flat-latency soak: start a real rtdbd, age it by 60k injected samples
# over TCP, and assert that the late-run serving p99 (as-of reads and
# queries) stays within a small factor of the early-run p99. Catches any
# regression that makes publish or read cost grow with total history.
SOAK_PORT ?= 7693
soak-short:
	@bin=$$(mktemp -d); trap 'rm -rf $$bin' EXIT; \
	$(GO) build -o $$bin/ ./cmd/rtdbd ./cmd/rtdbload || exit 1; \
	bash scripts/serve-and-load.sh $$bin $(SOAK_PORT) $$bin/rtdbd.out '-sessions 8' '-soak 60000' '^soak: '

# rtdbd and rtdbload end to end, two processes per run (scripts/serve-and-load.sh:
# rtdbd -listen, rtdbload once it serves, then SIGINT; both must exit 0 with
# their books closed, all under timeout). The mixed load runs against the
# default configuration, where its BOOK-queries line must carry a non-zero
# no_deadline term, and at the evaluation cost that equals status-watch's
# period (a periodic schedule the server cannot keep up with once hung the
# apply loop here), which also serves a -fanout run: every subscriber audits
# its cursor arithmetic. The durable group-commit run's drain report must show
# fsync_count > 0 and grouped_appends == wal_appends. An idle primary and
# -replica-of standby pair (scripts/idle-standby.sh) must hold the standby's
# one link on its beacons: net_conns_accepted 1; its failover leg, a fresh
# pair with the standby at -promote-after 3s, must not promote while idle and
# must promote within 6s of a kill -9 of the primary. Then a durable four-shard
# pair over one directory: both runs must close the cross-shard books, and the
# second must recover every shard's own WAL.
SMOKE_PORT ?= 7740
rtdbd-smoke:
	@bin=$$(mktemp -d); dir=$$(mktemp -d); sdir=$$(mktemp -d); trap 'rm -rf $$bin $$dir $$sdir' EXIT; \
	$(GO) build -o $$bin/ ./cmd/rtdbd ./cmd/rtdbload || exit 1; \
	pair() { bash scripts/serve-and-load.sh $$bin $(SMOKE_PORT) $$bin/rtdbd.out "$$@"; }; \
	pair '' '-ops 40' 'BOOK-queries: .* no_deadline [1-9][0-9]* ✓' || exit 1; \
	pair '-eval-cost 11' '-ops 40' || exit 1; \
	pair '-eval-cost 11' '-fanout 4 -writers 2 -ops 40' '4/4 subscriptions closed exactly' || exit 1; \
	pair "-dir $$dir -fsync -fsync-window 200us" '-ops 40' || exit 1; \
	awk '$$1 == "fsync_count" { f = $$2 } $$1 == "wal_appends" { w = $$2 } $$1 == "grouped_appends" { g = $$2 } \
		END { printf "fsync_count %d, grouped_appends %d == wal_appends %d\n", f, g, w; exit !(f > 0 && g == w) }' $$bin/rtdbd.out \
		|| { echo "rtdbd -fsync: want fsync_count > 0 and grouped_appends == wal_appends"; exit 1; }; \
	bash scripts/idle-standby.sh $$bin $(SMOKE_PORT) $$bin/rtdbd.out || exit 1; \
	for run in 1 2; do \
		pair "-dir $$sdir -shards 4" '-ops 40' 'cross-shard BOOK-queries: .* ✓' || exit 1; \
	done; \
	grep '^shard [0-3]/4: recovered' $$bin/rtdbd.out; \
	[ $$(grep -c '^shard [0-3]/4: recovered' $$bin/rtdbd.out) -eq 4 ] || { echo "rtdbd -shards 4: want four 'shard i/4: recovered' lines on the second run"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem .

# Every benchmark of the root package and the rtwire, log, netserve, replica,
# server and sub packages, run once: they still build and run
# (BenchmarkReplicaCatchup, BenchmarkNetFanout and the BenchmarkInjectSample
# and BenchmarkAsOfRead that DESIGN §11 quotes included), and with -benchmem
# every log shows their B/op (BenchmarkRebuild/200k's history bytes and
# BenchmarkOpen/200k's recovery bytes, ≈ 12.8 MB, among them). Seconds; CI
# runs this target.
BENCH_SMOKE_PKGS = . ./internal/rtwire/ ./internal/rtdb/log/ ./internal/rtdb/netserve/ ./internal/rtdb/replica/ ./internal/rtdb/server/ ./internal/rtdb/sub/
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' $(BENCH_SMOKE_PKGS)

# rtbench is the repository's benchmark (BENCHMARK.json, bench/README.md): a
# nested module the root `go test ./...` does not see. rtbench-smoke vets it
# and runs its tests at --tiny sizes; `make rtbench W=recover_replay` runs one
# workload end to end (RTBENCH_ARGS overrides seed, seconds and tracing).
W ?= wire_query
RTBENCH_ARGS ?= --seed 1 --seconds 12 --trace 0
rtbench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

rtbench:
	bash bench/run.sh --workload $(W) $(RTBENCH_ARGS)

# Machine-readable benchmark snapshot (ns/op, B/op, allocs/op for E1-E10
# plus the adhoc scaling suite) for tracking perf across commits. These are
# microbenchmarks of single code paths; the gate for a performance claim is
# rtbench (above), not these files.
bench-json:
	$(GO) test -run='^$$' -bench=. -benchmem . ./internal/adhoc/ | $(GO) run ./cmd/benchjson -o BENCH_adhoc.json
	$(GO) test -run='^$$' -bench=. -benchmem -timeout=30m ./internal/rtwire/ ./internal/rtdb/log/ ./internal/rtdb/server/ ./internal/rtdb/sub/ ./internal/rtdb/netserve/ ./internal/rtdb/replica/ ./internal/rtdb/torture/ | $(GO) run ./cmd/benchjson -o BENCH_rtdb.json

# Short fuzzing passes over the parsers and encoders.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=20s ./internal/timed/
	$(GO) test -fuzz=FuzzStrRoundTrip -fuzztime=20s ./internal/encoding/
	$(GO) test -fuzz=FuzzRecordRoundTrip -fuzztime=20s ./internal/encoding/
	$(GO) test -fuzz=FuzzScannerFastPath -fuzztime=20s ./internal/encoding/
	$(GO) test -fuzz=FuzzEventRoundTrip -fuzztime=20s ./internal/rtdb/log/
	$(GO) test -fuzz=FuzzEventCodecDifferential -fuzztime=20s ./internal/rtdb/log/
	$(GO) test -fuzz=FuzzSnapshotLoad -fuzztime=20s ./internal/rtdb/log/
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=20s ./internal/rtdb/log/
	$(GO) test -fuzz=FuzzSegmentRecovery -fuzztime=20s ./internal/rtdb/log/
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=20s ./internal/rtwire/
	$(GO) test -fuzz=FuzzRequestRoundTrip -fuzztime=20s ./internal/rtwire/
	$(GO) test -fuzz=FuzzDecodeDifferential -fuzztime=20s ./internal/rtwire/
	$(GO) test -fuzz=FuzzShardRoute -fuzztime=20s ./internal/rtwire/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/deadline
	$(GO) run ./examples/adhoc
	$(GO) run ./examples/rtdb
	$(GO) run ./examples/parallel
	$(GO) run ./examples/automata

experiments:
	$(GO) run ./cmd/rtcheck
	$(GO) run ./cmd/daccsim
	$(GO) run ./cmd/rtdbsim
	$(GO) run ./cmd/adhocsim

clean:
	$(GO) clean ./...
