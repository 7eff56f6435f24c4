# Developer entry points. `make check` is the gate CI runs.

GO ?= go

.PHONY: check test build vet bench bench-parallel

check:
	sh scripts/check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full benchmark suite (regenerates every exhibit; slow). BenchmarkFrontier
# fails when an int8 Chameleon store falls more than 1.0 pt below fp32.
bench:
	$(GO) test -bench=. -benchmem .

# Just the parallel-kernel benchmarks: serial vs GOMAXPROCS workers.
bench-parallel:
	$(GO) test -run xxx -bench 'BenchmarkMatMulParallel|BenchmarkLatentExtractParallel' .
