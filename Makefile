GO ?= go

.PHONY: all build test race vet bench bench-svm bench-online bench-record bench-all bench-quality golden clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The engine benchmarks behind docs/PERFORMANCE.md and docs/EMULATOR.md.
bench:
	$(GO) test -run xxx -bench 'BenchmarkMine|BenchmarkSVMTrain|BenchmarkCounterSparse|BenchmarkPipelineCaseI' -benchmem .
	$(GO) test -run xxx -bench . -benchmem ./internal/svm/ ./internal/feature/
	$(GO) test -run xxx -bench . -benchmem ./internal/mcu/ ./internal/sim/ ./internal/apps/

# The mining-at-scale benchmarks behind BENCH_PR4.json: blocked sparse
# kernels, training through the kernel column cache, the l=10k campaign
# problem (the default budget vs 25% and 5% of the l×l footprint; several
# minutes on one core), and one planned kernel column fill.
bench-svm:
	$(GO) test -run xxx -bench 'BenchmarkSparseOps' -benchmem ./internal/stats/
	$(GO) test -run xxx -bench 'BenchmarkTrain|BenchmarkKernelEval|BenchmarkColumnFill' -benchmem -timeout 60m ./internal/svm/

# The online-mining benchmarks behind BENCH_PR10.json (PR 7 baseline in
# BENCH_PR7.json): exact delta refits at the l=10k campaign size, with the
# metadata rows in memory and in an on-disk row file, and the ingest-only
# path (several minutes on one core).
bench-online:
	$(GO) test -run xxx -bench 'BenchmarkOnlineMine|BenchmarkOnlineIngest' -benchmem -timeout 60m ./internal/core/

# The record-phase benchmark of the multihop chain: the lockstep oracle
# vs the production engine with conservative-lookahead sections.
bench-record:
	$(GO) test -run xxx -bench 'BenchmarkRecordParallelNodes' -benchmem -timeout 30m ./internal/synth/

# Every benchmark, including the paper-evaluation harness (slow).
bench-all:
	$(GO) test -run xxx -bench . -benchmem ./...

# Evaluate the Sentomist-bench seeded-bug corpus and gate precision@k /
# MRR against the checked-in baseline (docs/BENCH.md). Regenerate the
# baseline deliberately with:
#   $(GO) run ./cmd/sentomist bench -update BENCH_QUALITY.json
bench-quality:
	$(GO) run ./cmd/sentomist bench -baseline BENCH_QUALITY.json

# Diff the pinned ranking tables and the ablation matrix (every bench entry
# mined by every arm) against their golden files. Regenerate deliberately
# with -update on the same command.
golden:
	$(GO) test -count=1 -run Golden ./internal/apps/ ./internal/bench/

clean:
	$(GO) clean
	rm -f sentomist.test
