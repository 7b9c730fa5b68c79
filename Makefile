# Reproduction of "Leader Election in Asymmetric Labeled Unidirectional
# Rings" (Altisen et al., IPPS 2017). Standard library only; Go >= 1.22.

GO ?= go

.PHONY: all build check vet fmt-check test test-net test-serve test-wire \
        test-cluster test-chaos test-secure test-rand test-kernel test-race race-concurrency test-short bench \
        bench-serve bench-wire bench-cluster bench-miss bench-secure bench-json bench-compare \
        profile-serve experiments experiments-md fuzz fuzz-parse fuzz-wire fuzz-secure \
        figures clean

all: build check test

build:
	$(GO) build ./...

# Static checks plus the TCP transport engine's race/fault soak, the
# election-serving daemon's race/shed/drain soak, the binary wire
# protocol's pipelining/drain soak, the cluster gateway's routing/
# failover/replica-kill soak, the crash-recovery chaos soak, and the
# miss-path kernel's equivalence soak, plus the hardened-transport
# suite, wired into the default flow.
check: vet fmt-check test-net test-serve test-wire test-cluster test-chaos test-secure test-rand test-kernel

vet:
	$(GO) vet ./...

fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt required for:"; echo "$$files"; exit 1; \
	fi

test:
	$(GO) test ./...

# The TCP transport engine under the race detector, plus a short soak of
# the fault-injection and reconnect paths (repeated runs shake out timing
# races in backoff/reconnect that a single pass can miss).
test-net:
	$(GO) test -race -count=1 ./internal/netring/... ./cmd/ringnode/...
	$(GO) test -race -count=3 -run 'Fault|Backoff|Unreachable|Violation' ./internal/netring/

# The serving stack (daemon, cache, admission, load generator) under the
# race detector, plus short soaks of the shed and graceful-drain paths —
# the two places where a timing race turns into a hung client — and of the
# sharded cache's waiter-vs-eviction and abandon/retry races.
test-serve:
	$(GO) test -race -count=1 ./internal/serve/... ./internal/load/... ./internal/stats/... ./cmd/ringd/... ./cmd/ringload/...
	$(GO) test -race -count=3 -run 'Shed|Drain|Singleflight|CloseDrains' ./internal/serve/
	$(GO) test -race -count=3 -run 'Evict|Waiter|Shard|Abandoned' ./internal/serve/

# The RGV1 binary wire protocol under the race detector: pipelined
# out-of-order completion, typed shedding, and the graceful-drain
# half-close (flush, FIN, linger) are exactly the paths where a timing
# race becomes a truncated frame, so they get a repeated soak — on
# ringd's local handler and on the gateway's backend handler of the one
# connection engine. The last line runs the crosscheck-ordering and
# in-flight-budget tests without -race: a test that passes only when the
# race detector slows the loop is a bug report.
test-wire:
	$(GO) test -race -count=3 -run 'Wire' ./internal/serve/ ./cmd/ringd/ ./cmd/ringload/
	$(GO) test -race -count=3 -run 'Wire|Gateway' ./internal/cluster/ ./cmd/ringgw/
	$(GO) test -count=50 -run 'WireCrosscheckRuns|WireFrontendInflight' ./internal/serve/

# The cluster subsystem under the race detector: rendezvous routing,
# health hysteresis, failover, hedging, the gateway daemon, the
# in-process scaling ladder, and the replica-kill soak — real ringd
# subprocesses SIGKILLed behind the gateway while a crosschecking load
# mix keeps flowing.
test-cluster:
	$(GO) test -race -count=1 ./internal/cluster/ ./cmd/ringgw/
	$(GO) test -race -count=1 -run 'Cluster' ./internal/load/ ./cmd/ringload/
	$(GO) test -race -count=1 -timeout 10m -run 'Replica' ./internal/chaos/

# Crash-recovery chaos soak: real ringnode processes over TCP, a
# seed-driven fault scheduler (SIGKILL + relaunch, partitions, delay
# spikes), every run cross-checked against the deterministic simulator.
# The race detector rides along; -chaos.seeds widens the sweep.
test-chaos:
	$(GO) test -race -count=1 -timeout 20m ./internal/chaos/ -chaos.seeds=20
	$(GO) test -race -count=1 ./cmd/ringchaos/

# The hardened transport under the race detector: the ringsec
# handshake/record layer itself, then every layer that threads it —
# sealed ring links, the secure serve port (downgrade, replay, unknown
# client, per-peer rate limits), the keyed cluster fleet, the encrypted
# 8-process ring, and the daemons' -keyfile paths — and finally the
# adversarial chaos schedules (ciphertext garbage, replay, truncation,
# mid-handshake cuts against real encrypted ringnode processes).
test-secure:
	$(GO) test -race -count=1 ./internal/secure/
	$(GO) test -race -count=1 -run 'Secure|Sealed|RateLimit|Replay|Downgrade' \
		./internal/netring/ ./internal/serve/ ./internal/cluster/ \
		./cmd/ringnode/ ./cmd/ringd/ ./cmd/ringgw/ ./cmd/ringload/
	$(GO) test -race -count=1 -timeout 20m -run 'Adversary' ./internal/chaos/

# The randomized election engine: the seeded ensemble (200 seeds of
# deterministic replay, draw statistics, rotation equivariance) plus a
# -race soak of the three-way simulator/goroutine/TCP agreement — the
# exact place where a scheduler-dependent PRNG stream would surface as a
# cross-engine message-count mismatch.
test-rand:
	$(GO) test -count=1 ./internal/rand/
	$(GO) test -race -count=3 -run 'ThreeWay|Ensemble|CrashRecovery' ./internal/rand/
	$(GO) test -race -count=1 -run 'Rand|Symmetric' ./internal/serve/ ./internal/cluster/

# The allocation-free miss-path kernel: the sim-layer scratch equivalence
# suite (Into runs vs legacy runs, trace streams included), the root-level
# ElectInto equivalence soak over the golden ring corpus for every registry
# algorithm, and the serving layer's concurrent-miss soak under the race
# detector.
test-kernel:
	$(GO) test -count=1 -run 'Scratch' ./internal/sim/
	$(GO) test -count=1 -run 'ElectInto|RingSeed' .
	$(GO) test -count=1 -run 'MissPath' ./internal/serve/
	$(GO) test -race -count=1 -run 'MissPath|ServeMissConcurrentSoak' ./internal/serve/

test-race:
	$(GO) test -race ./...

# Focused race check of the concurrency-bearing packages: the sweep
# worker pool, the parallel schedule explorer, and the goroutine engine.
race-concurrency:
	$(GO) test -race ./internal/sweep/... ./internal/sim/... ./internal/gorun/...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The serving hot-path micro-benchmarks (cache hit, legacy global-mutex
# hit, cache-churn miss, singleflight). -cpu 8 exercises the sharded
# cache under the contention it exists for, even on smaller machines.
# The pattern excludes the ServeMissKernel/ServeMissLegacy pair, which
# has its own section (bench-miss) and runs single-threaded.
bench-serve:
	$(GO) test -run '^$$' -bench 'Serve(Hit|Miss$$|Singleflight)' -benchmem -cpu 8 -count 1 ./internal/serve/

# The miss-path before/after pair: one cold election through the
# per-worker scratch-arena kernel against the same election through the
# legacy allocating path. The committed baseline requires the kernel to
# hold >=3x fewer allocs/op and >=1.5x ns/op.
bench-miss:
	$(GO) test -run '^$$' -bench 'ServeMiss(Kernel|Legacy)' -benchmem -count 1 ./internal/serve/

# The wire-vs-HTTP A/B pair: one cached hit through the RGV1 binary
# protocol against the same hit through HTTP/JSON. The committed
# baseline requires wire to stay >=5x faster with 0 allocs/op.
bench-wire:
	$(GO) test -run '^$$' -bench 'WireHit|HTTPHit' -benchmem -cpu 8 -count 1 ./internal/serve/

# The replica-scaling ladder: routed election throughput at fleet sizes
# 1, 2, and 4. Deliberately NO -cpu override — the ladder must record
# the machine's true GOMAXPROCS, because benchdiff's -cluster-scale
# check trusts the report's gomaxprocs to decide whether a flat ladder
# is a regression or just a narrow host.
bench-cluster:
	$(GO) test -run '^$$' -bench 'ClusterElect' -benchmem -count 1 ./internal/cluster/

# The encryption A/B pair: one cached election round trip over loopback
# TCP, plaintext versus ringsec. The committed baseline requires secure
# to stay <=3x the plaintext ns/op.
bench-secure:
	$(GO) test -run '^$$' -bench 'WireElect(Plain|Secure)' -benchmem -count 1 ./internal/serve/

# Machine-readable experiment benchmark (same schema as BENCH_PR9.json),
# with the serving, wire, cluster, and miss-path benchmarks merged into
# its serve_bench, wire_bench, cluster_bench, and miss_bench sections.
bench-json:
	$(GO) run ./cmd/ringbench -json BENCH_NEW.json > /dev/null
	$(GO) test -run '^$$' -bench 'Serve(Hit|Miss$$|Singleflight)' -benchmem -cpu 8 -count 1 ./internal/serve/ \
		| $(GO) run ./cmd/benchdiff -merge-serve BENCH_NEW.json
	$(GO) test -run '^$$' -bench 'WireHit|HTTPHit' -benchmem -cpu 8 -count 1 ./internal/serve/ \
		| $(GO) run ./cmd/benchdiff -merge-wire BENCH_NEW.json
	$(GO) test -run '^$$' -bench 'ClusterElect' -benchmem -count 1 ./internal/cluster/ \
		| $(GO) run ./cmd/benchdiff -merge-cluster BENCH_NEW.json
	$(GO) test -run '^$$' -bench 'ServeMiss(Kernel|Legacy)' -benchmem -count 1 ./internal/serve/ \
		| $(GO) run ./cmd/benchdiff -merge-miss BENCH_NEW.json
	$(GO) test -run '^$$' -bench 'WireElect(Plain|Secure)' -benchmem -count 1 ./internal/serve/ \
		| $(GO) run ./cmd/benchdiff -merge-secure BENCH_NEW.json

# Diff a fresh benchmark report against the committed baseline:
# wall-clock deltas are informational; content drift, serve/wire/cluster/
# miss/secure ns/op regressions past tolerance, allocs/op increases, a
# wire hit slipping below 5x the HTTP hit, a miss kernel slipping below
# 3x fewer allocs or 1.5x the legacy path's speed, an encrypted round
# trip above 3x its plaintext equivalent, and (on multi-core hosts) a
# replica ladder that stopped scaling fail the target.
bench-compare: bench-json
	$(GO) run ./cmd/benchdiff BENCH_PR10.json BENCH_NEW.json

# Capture CPU and heap profiles of ringd under ringload traffic.
# Artifacts land in ./profiles/ for `go tool pprof`.
profile-serve:
	@mkdir -p profiles
	$(GO) build -o profiles/ringd ./cmd/ringd
	$(GO) build -o profiles/ringload ./cmd/ringload
	@profiles/ringd -listen 127.0.0.1:8322 -pprof 127.0.0.1:6060 & \
	RINGD_PID=$$!; \
	sleep 0.5; \
	( curl -s -o profiles/cpu.pb.gz 'http://127.0.0.1:6060/debug/pprof/profile?seconds=8' & \
	  CURL_PID=$$!; \
	  profiles/ringload -url http://127.0.0.1:8322 -n 20000 -workers 16 > profiles/ringload.json; \
	  wait $$CURL_PID ); \
	curl -s -o profiles/heap.pb.gz 'http://127.0.0.1:6060/debug/pprof/heap'; \
	kill $$RINGD_PID; \
	echo "profiles/cpu.pb.gz, profiles/heap.pb.gz, profiles/ringload.json"

# Regenerate every experiment table (E1..E14).
experiments:
	$(GO) run ./cmd/ringbench

experiments-md:
	$(GO) run ./cmd/ringbench -format md

# Randomized + exhaustive robustness campaign.
fuzz:
	$(GO) run ./cmd/ringfuzz -trials 500

# Coverage-guided fuzzing of the untrusted ring-spec parser (seed corpus
# under internal/ring/testdata/fuzz/).
fuzz-parse:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/ring/

# Coverage-guided fuzzing of the RGV1 wire-frame decoders (seed corpus
# under internal/serve/testdata/fuzz/).
fuzz-wire:
	$(GO) test -fuzz=FuzzWireRequest -fuzztime=30s ./internal/serve/

# Coverage-guided fuzzing of the encrypted transport's untrusted
# surfaces: the ringsec handshake and record layer (seed corpus under
# internal/secure/testdata/fuzz/), the sealed ring-link stream, and the
# secure wire port's pre-authentication surface.
fuzz-secure:
	$(GO) test -fuzz=FuzzServerHandshake -fuzztime=30s ./internal/secure/
	$(GO) test -fuzz=FuzzRecordStream -fuzztime=30s ./internal/secure/
	$(GO) test -fuzz=FuzzSealedStream -fuzztime=30s ./internal/netring/
	$(GO) test -fuzz=FuzzWireSecureHandshake -fuzztime=30s ./internal/serve/

# The paper's figures: text + SVG Figure 1, DOT Figure 2.
figures:
	$(GO) run ./cmd/ringviz -figure1
	$(GO) run ./cmd/ringviz -figure1 -svg > figure1.svg
	$(GO) run ./cmd/ringviz -dot > figure2.dot

clean:
	rm -f figure1.svg figure2.dot test_output.txt bench_output.txt BENCH_NEW.json
	rm -rf profiles
