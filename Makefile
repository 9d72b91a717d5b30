# Developer entry points. Everything is stdlib-only Go; `make check` is the
# gate every change must pass (build + vet + full tests + race detector on
# the concurrency-bearing packages).

GO ?= go

.PHONY: check lint vet cross build test race chaos fuzz cover fleet bench bench-gemm bench-train bench-wire

check: lint build test race

# Static gate: vet, the non-amd64 build, and gofmt as a *failing* check —
# gofmt -l prints the offending files and the target exits non-zero if any
# exist.
lint: vet cross
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

# The pure-Go GEMM fallback is all that non-amd64 builds get, and every
# assembly symbol needs its gemm_noasm.go stub there; an amd64-only
# `go test ./...` never compiles that file.
cross:
	GOARCH=arm64 $(GO) vet ./internal/tensor/ && GOARCH=arm64 $(GO) build ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages that spawn goroutines (parallel GEMM, parallel evaluation,
# parallel client rounds, the concurrent RPC round engine and its chaos
# suite, the sharded streaming aggregation tree) plus the crash-safety
# layer and the shared-registry observability layer under the race
# detector.
race:
	$(GO) test -race ./internal/fl/... ./internal/nn/... ./internal/tensor/... ./internal/rpc/... ./internal/checkpoint/... ./internal/obs/... ./internal/shard/... ./internal/compress/... ./internal/scenario/... ./internal/edge/... ./internal/session/...

# The full-session fault-injection suite (stragglers, partitions, drops,
# kill-and-restart resume) plus the two-tier edge-kill/reroute suite under
# the race detector.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 -v ./internal/rpc/ ./internal/edge/

# Short fuzzing smoke over the attack surfaces: corrupted/truncated wire
# frames and checkpoint snapshots must error, never panic (and the two
# wire receive paths must agree frame by frame), the sharded
# streaming aggregator must agree with the reference fold under
# adversarial updates, and the sampled top-k selector must match its
# sort-based reference bit for bit. CI-friendly 10s budgets; raise
# -fuzztime locally for a deeper run.
fuzz:
	$(GO) test -run xxx -fuzz FuzzEnvelopeDecode -fuzztime 10s ./internal/rpc/
	$(GO) test -run xxx -fuzz FuzzWireDecode -fuzztime 10s ./internal/rpc/
	$(GO) test -run xxx -fuzz FuzzCheckpointDecode -fuzztime 10s ./internal/checkpoint/
	$(GO) test -run xxx -fuzz FuzzDeltaDecode -fuzztime 10s ./internal/checkpoint/
	$(GO) test -run xxx -fuzz FuzzShardMerge -fuzztime 10s ./internal/shard/
	$(GO) test -run xxx -fuzz FuzzScenarioDecode -fuzztime 10s ./internal/scenario/
	$(GO) test -run xxx -fuzz FuzzSelectTopK -fuzztime 10s ./internal/compress/

# Coverage floors on the scenario engine and the models it composes, plus
# the wire codec, the sharded aggregation tree and the two-tier edge
# federation — the protocol/aggregation core every session rides on.
# Floors sit a few points under current numbers to absorb benign drift.
cover:
	@set -e; \
	check_pkg() { \
		pct=$$($(GO) test -cover ./internal/$$1/ | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "internal/$$1: tests failed or no coverage output"; exit 1; fi; \
		echo "internal/$$1: $$pct% (floor $$2%)"; \
		if ! awk -v p="$$pct" -v f="$$2" 'BEGIN { exit !(p+0 >= f+0) }'; then \
			echo "internal/$$1: coverage $$pct% is below the $$2% floor"; exit 1; \
		fi; \
	}; \
	check_pkg scenario 85; \
	check_pkg device 90; \
	check_pkg netsim 85; \
	check_pkg rpc 84; \
	check_pkg shard 76; \
	check_pkg edge 80; \
	check_pkg compress 85; \
	check_pkg session 80; \
	check_pkg checkpoint 75

# Fleet-scale aggregation smoke: a small streaming-vs-buffered pair from
# the load harness. BENCH_5.json records the full 1k/10k-client runs and
# the sublinear-memory comparison.
fleet:
	$(GO) run ./cmd/flfleet -clients 500 -shards 4 -rounds 3 -dim 5000 -nnz 250
	$(GO) run ./cmd/flfleet -clients 500 -shards 4 -rounds 3 -dim 5000 -nnz 250 -mode buffered

# Hot-path microbenchmarks with allocation stats; see DESIGN.md §GEMM for
# how these map onto BENCH_1.json. BenchmarkGEMMShapes is the per-shape
# ledger (every GEMM of a paper-CNN and a wire-MLP training step, at one
# and two workers) that BENCH_15.json records.
bench-gemm:
	$(GO) test -run xxx -bench 'BenchmarkMatMul|BenchmarkMatMulNaive|BenchmarkMatMulParallel|BenchmarkMatMulTranspose|BenchmarkGEMMShapes' -benchtime 2s -benchmem ./internal/tensor/

# BENCH_4.json records the observability-overhead check: BenchmarkTrainRound
# with metrics disabled (nil registry) must match the pre-obs baseline —
# the nil-receiver no-op instruments are allocation-free by construction
# (pinned by TestNilInstrumentsAllocationFree in internal/obs). Both -cpu
# settings run because the GEMM worker budget is taken from GOMAXPROCS at
# start-up, not from -cpu: allocs/op must read the same at 1 and 2.
bench-train:
	$(GO) test -run xxx -bench 'BenchmarkConv|BenchmarkDense' -cpu 1,2 -benchtime 2s -benchmem ./internal/nn/
	$(GO) test -run xxx -bench 'BenchmarkTrainRound|BenchmarkPaperCNNTrainBatch|BenchmarkDGCEncode431k|BenchmarkTopKSelect431k' -cpu 1,2 -benchtime 2s -benchmem .

# Wire-codec microbenchmarks (bytes/op, allocs/op for sparse-update and
# full-model frames) plus a bounded socket fleet over unix sockets.
# BENCH_6.json records the full 10k-client runs and the comparison with
# the retired gob codec; this target is the CI-sized smoke.
bench-wire:
	$(GO) test -run xxx -bench 'BenchmarkWire' -benchtime 2s -benchmem ./internal/rpc/
	$(GO) run ./cmd/flfleet -clients 1000 -rounds 3 -dim 20000 -nnz 1000 -fleet-addr unix:/tmp/flfleet-bench.sock -json

bench: bench-gemm bench-train bench-wire
