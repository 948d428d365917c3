# Development targets for the maskfrac repo. `make check` is the
# gate: formatting, vet and the full test suite under the race
# detector (the shapecache and fracserve tests are concurrency-heavy).

GO ?= go

.PHONY: all build fmt vet test race bench soak check

all: build

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# -short skips the multi-minute fracturing integration suites, which are
# too slow under the race detector; the concurrency-heavy tests
# (shapecache, fracserve, batch, cache) all still run.
race:
	$(GO) test -race -short ./...

# bench runs the quick benchmarks of the root package, the shape cache,
# the /fracture wire codec and one cache-hit /fracture round trip five
# times with -benchmem and prints the results; pass BENCH='.' to widen
# it. A speed claim is backed by the repo benchmark instead:
# python3 perfbench/run.py
BENCH ?= BenchmarkShapeCache|BenchmarkBatchCache|BenchmarkEngineRegions|BenchmarkRefine|BenchmarkCanonicalize|BenchmarkKeyWith|BenchmarkRequestCodec|BenchmarkResponseCodec|BenchmarkFractureHit
bench:
	$(GO) test -run '^$$' -bench "$(BENCH)" -benchmem -count 5 . ./internal/shapecache ./internal/fracserve

# soak holds an in-process cluster at a steady QPS and records the
# rolling time series + SLO verdict to BENCH_<date>-soak.json
SOAK_NODES ?= 3
SOAK_QPS ?= 150
SOAK_DURATION ?= 60s
soak:
	$(GO) run ./cmd/loadgen -soak -nodes $(SOAK_NODES) -qps $(SOAK_QPS) \
		-duration $(SOAK_DURATION) -method proto-eda \
		-json BENCH_$$(date +%F)-soak.json

check: fmt vet test race
	@echo "check ok"
