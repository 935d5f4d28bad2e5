GO ?= go

.PHONY: all build test race bench bench-json bench-guard stress fuzz chaos lint check repro examples fmt vet clean

# How long each fuzzer runs under `make fuzz` / `make check`.
FUZZTIME ?= 10s

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable reports for the replication benches: runs the
# batching/coalescing/counting/sharding/repair benchmarks and converts the
# output to BENCH_*.json via cmd/benchjson. CI smoke-runs this with
# BENCHTIME=1x SHARDTIME=50x; use the defaults for numbers worth
# comparing. The shard-scaling bench gets its own iteration count
# because each op is a deliberate 1ms I/O sleep — 100x would be all
# startup noise, and the default 1000x still finishes in seconds.
BENCHTIME ?= 100x
SHARDTIME ?= 1000x
HOTTIME ?= 500x
DEDUPETIME ?= 20x
KERNELTIME ?= 200000x
bench-json:
	$(GO) test -run='^$$' -bench='BatchShip|AblationCoalesce' -benchtime=$(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -out BENCH_batch.json
	$(GO) test -run='^$$' -bench='NonZeroBytes' -benchtime=$(BENCHTIME) ./internal/parity \
		| $(GO) run ./cmd/benchjson -out BENCH_nonzero.json
	$(GO) test -run='^$$' -bench='ShardScaling' -benchtime=$(SHARDTIME) . \
		| $(GO) run ./cmd/benchjson -out BENCH_shard.json
	$(GO) test -run='^$$' -bench='Hotpath' -benchtime=$(HOTTIME) . \
		| $(GO) run ./cmd/benchjson -out BENCH_hotpath.json
	$(GO) test -run='^$$' -bench='GroupRepair' -benchtime=$(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -out BENCH_repair.json
	$(GO) test -run='^$$' -bench='Dedupe' -benchtime=$(DEDUPETIME) . \
		| $(GO) run ./cmd/benchjson -out BENCH_dedupe.json
	$(GO) test -run='^$$' -bench='HashBlock' -benchtime=$(KERNELTIME) -benchmem -cpu 1 ./internal/iscsi \
		| $(GO) run ./cmd/benchjson -out BENCH_kernels.json

# Performance regression guards (see cmd/benchjson guard mode):
#   - hotpath: writes/s must not fall more than REGRESS percent below
#     the committed BENCH_hotpath.json. Only the link-latency-dominated
#     SyncShip benches are compared: they repeat within a few percent,
#     while the CPU-bound shard benches swing too much run to run.
#   - repair: chain-repair wire bytes (lower is better, hence -lower)
#     must not rise more than REGRESS percent above BENCH_repair.json.
#   - dedupe: the by-ref wire-savings ratio (savedx) must not fall more
#     than REGRESS percent below BENCH_dedupe.json.
#   - kernels: CPU per 8 KiB block hash (ns/op, lower is better) must
#     not rise more than KERNEL_REGRESS percent above BENCH_kernels.json.
#     Single-goroutine CPU time moves with the host far more than the
#     link- and byte-bound metrics above, so its bound is wide; a return
#     to a bytewise hash (~10x) still fails it.
REGRESS ?= 10
KERNEL_REGRESS ?= 100
bench-guard:
	$(GO) test -run='^$$' -bench='HotpathSyncShip' -benchtime=$(HOTTIME) . \
		| $(GO) run ./cmd/benchjson -baseline BENCH_hotpath.json \
			-metric writes/s -max-regress $(REGRESS)
	$(GO) test -run='^$$' -bench='GroupRepair' -benchtime=$(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -baseline BENCH_repair.json \
			-metric wireB -lower -max-regress $(REGRESS)
	$(GO) test -run='^$$' -bench='Dedupe' -benchtime=$(DEDUPETIME) . \
		| $(GO) run ./cmd/benchjson -baseline BENCH_dedupe.json \
			-metric savedx -max-regress $(REGRESS)
	$(GO) test -run='^$$' -bench='HashBlock' -benchtime=$(KERNELTIME) -benchmem -cpu 1 ./internal/iscsi \
		| $(GO) run ./cmd/benchjson -baseline BENCH_kernels.json \
			-metric ns/op -lower -max-regress $(KERNEL_REGRESS)

# The sharded-engine and multi-volume concurrency battery, repeated
# under the race detector: cross-shard parallel writers, same-LBA
# ordering, randomized crash/heal invariants, mid-batch chaos, volume
# lifecycle and shared-session isolation.
STRESSCOUNT ?= 3
stress:
	$(GO) test -race -count=$(STRESSCOUNT) -run 'Shard|Volume|Group' ./internal/core .

# Short fuzz passes over the wire-facing decoders, seeded from the
# checked-in corpora (regenerate with PRINS_REGEN_CORPUS=1 go test
# -run TestRegenerateFuzzCorpus ./internal/core).
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzReadPDU$$' -fuzztime=$(FUZZTIME) ./internal/iscsi
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeBatch$$' -fuzztime=$(FUZZTIME) ./internal/iscsi
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeByRef$$' -fuzztime=$(FUZZTIME) ./internal/iscsi
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeStripe$$' -fuzztime=$(FUZZTIME) ./internal/iscsi
	$(GO) test -run='^$$' -fuzz='^FuzzHashBlock$$' -fuzztime=$(FUZZTIME) ./internal/iscsi
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSnapshot$$' -fuzztime=$(FUZZTIME) ./internal/dedupe
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/xcode

# The fault-injection suites under the race detector: connection and
# store chaos, torn-write journal recovery, divergence detection and
# dirty-range repair, resync cancellation, scrubbing, and the group
# replica-kill / chain-repair drill.
chaos:
	$(GO) test -race -run 'Chaos|Torn|Diverged|Journal|Resync|Scrub|Fault' \
		./internal/core ./internal/faults ./internal/journal ./internal/resync .

# prinslint is the project's own invariant analyzer (see DESIGN.md,
# "Static analysis & invariants"): dropped I/O errors, parity aliasing,
# nondeterministic chaos machinery, racy counters, unguarded decodes.
lint:
	$(GO) run ./cmd/prinslint ./...

# The pre-merge gate: static analysis, the full suite under the race
# detector, then a short fuzz of the decoders.
check: vet lint race fuzz

# Regenerate every figure of the paper's evaluation.
repro:
	$(GO) run ./cmd/prinsbench all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/tpcc
	$(GO) run ./examples/filesync
	$(GO) run ./examples/wansim
	$(GO) run ./examples/recovery
	$(GO) run ./examples/raidnode

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
