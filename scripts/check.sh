#!/bin/sh
# check.sh — the repo's CI gate: formatting, vet, and the full test
# suite under the race detector. Equivalent to `make check` for
# environments without make.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

# perfbench is a module of its own (replace maskfrac => ../), so the
# root ./... never builds it; vet and test it here so an internal API
# change that breaks the benchmark fails the gate
echo "== perfbench vet + test =="
(cd perfbench && go vet ./... && go test -count=1 ./...)

# -shuffle=on randomizes test execution order so hidden inter-test
# dependencies surface in CI rather than in a refactor
echo "== go test =="
go test -shuffle=on ./...

# the service end-to-end tests exercise the worker pool, the metrics
# middleware and graceful drain concurrently; run them all under the
# race detector explicitly (the -short sweep below also covers them,
# but this line keeps the e2e surface racing even if -short semantics
# change)
echo "== go test -race fracserve e2e =="
go test -race -run 'TestE2E' ./internal/fracserve

# cache hits are answered on the request goroutine and only misses are
# queued: a congruent copy of a cached shape gets 200 while the only
# worker is stalled and the queue is full, a batch mixing hits and a
# miss keeps input order and counts, and a hit's fracd.shape span
# carries its attributes and covers the lookup
echo "== go test -race fracd hits off the queue =="
go test -race -count=10 -run 'TestE2EHitBypassesFullQueue|TestE2EMixedBatchOrder|TestE2EHitTrace' ./internal/fracserve

# the /fracture wire bodies come from one sync.Pool: many goroutines
# mixing hits of distinct classes, misses, malformed bodies and
# return_trace requests must each get their own request's reply, and
# hits served one after another through the handler must reply alike
# (the allocation gate itself holds in the plain go test above; the race
# detector drops pool puts on purpose, so it only logs the count here)
echo "== go test -race pooled wire buffers =="
go test -race -count=10 -run 'TestPooledBuffersConcurrent|TestFractureHitAllocs' ./internal/fracserve

# cache keys route the cluster, so canonicalization must round alike on
# every architecture: gc fuses x*y+z into one instruction on arm64 (not
# on amd64), and the shape cache's arm64 code must hold none
echo "== no fused multiply-add in internal/shapecache on arm64 =="
fused="$(GOARCH=arm64 go build -gcflags=-S ./internal/shapecache 2>&1 | grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b' || true)"
if [ -n "$fused" ]; then
	echo "fused multiply-add in internal/shapecache (arm64):"
	echo "$fused"
	exit 1
fi

# the cluster e2e smoke spawns 3 in-process fracd servers, routes a
# small hierarchical mask through the consistent-hash ring, and asserts
# the single-solve-per-congruence-class invariant (sum of cache misses
# across nodes == distinct canonical keys via /stats), plus node-kill
# failover with zero lost placements — all under the race detector
echo "== go test -race cluster e2e (3-node smoke) =="
go test -race -run 'TestClusterE2E' ./internal/cluster

# the stencil planner e2e mines per-class placement stats from all 3
# nodes of a live cluster (/stats?classes=K), plans a CP stencil, and
# asserts the plan beats the no-CP baseline, the per-class savings sum
# exactly to the reported total, and a re-mine + re-plan is
# byte-identical — the determinism contract the golden test pins
echo "== go test -race stencil plan e2e (3-node mine) =="
go test -race -run 'TestStencilPlanE2E' ./internal/cluster

# the soak smoke holds 3 in-process nodes at a steady QPS for a few
# seconds under the race detector and asserts a gap-free rolling time
# series (zero dropped windows) plus at least one complete cross-node
# trace waterfall stitched from the daemons' span trees
echo "== go test -race loadgen soak smoke (3-node) =="
go test -race -count=1 -run 'TestSoakSmoke' ./cmd/loadgen

# the one single-flight group (internal/flight) and its three users:
# one fn per key under a lookup that fn fills, errors never kept, a
# cancelled joiner returns its own ctx error, a live joiner does not
# inherit a cancelled leader's error, and a panicking leader releases
# its joiners — the group's own tests, the shape cache's Do and the
# cluster client's SolveClass, repeated under the race detector
echo "== go test -race single-flight group (flight, shapecache Do, cluster) =="
go test -race -count=10 ./internal/flight
go test -race -count=10 -run 'TestCacheDo' ./internal/shapecache
go test -race -count=10 -run 'TestSingleflight|TestClusterSingleflight' ./internal/cluster

# ten seconds of fuzzing the shape canonicalizer against its
# brute-force oracle (all eight transforms times every rotation, first
# transform wins ties), bit for bit, plus key invariance under
# congruence and the exact shot round trip; the seed corpus in
# internal/shapecache/testdata/fuzz also runs in every go test above
echo "== go test -fuzz FuzzCanonicalize (10 s) =="
go test -run '^$' -fuzz '^FuzzCanonicalize$' -fuzztime 10s ./internal/shapecache

# ten seconds each of fuzzing the /fracture wire codec against
# encoding/json: for any body, the same decoded value and error text as
# json.Decoder, and json.Marshal's (json.Encoder's for a reply) bytes
# when the value is encoded again; the seed corpus in
# internal/fracserve/testdata/fuzz also runs in every go test above
echo "== go test -fuzz FuzzRequestCodec, FuzzResponseCodec (10 s each) =="
go test -run '^$' -fuzz '^FuzzRequestCodec$' -fuzztime 10s ./internal/fracserve
go test -run '^$' -fuzz '^FuzzResponseCodec$' -fuzztime 10s ./internal/fracserve

# ten seconds of fuzzing the GDSII reader: on any stream it returns a
# library or an error, never a panic, and a library it returns writes
# with WriteGDSLib and reads back equal; the seeds (WriteGDSLib streams
# of a hierarchy and the ILT clips, plus internal/maskio/testdata/fuzz)
# also run in every go test above. Its inputs run to 2 KiB, and the
# fuzzer shrinks each new one in a number of calls quadratic in its
# length: unbounded, that took the whole 10 s (4.6K execs, 1 new
# input); at 200 calls per shrink the 10 s ran 496K execs
echo "== go test -fuzz FuzzReadGDSLib (10 s) =="
go test -run '^$' -fuzz '^FuzzReadGDSLib$' -fuzztime 10s -fuzzminimizetime 200x ./internal/maskio

# -short skips the multi-minute fracturing integration suites, which are
# too slow under the race detector; the concurrency-heavy tests
# (shapecache, fracserve, batch, cache, telemetry) all still run.
echo "== go test -race -short =="
go test -race -short ./...

# one pass of the refinement benchmark exercises the incremental
# evaluator's strip scans, effort counters and observer hook under the
# race detector on every check
echo "== go test -race -bench Refine (smoke) =="
go test -race -run '^$' -bench 'BenchmarkRefine' -benchtime 1x .

# the engine benchmark smoke runs the work-stealing region scheduler at
# -cpu 1 and 4 under the race detector (identical shot lists asserted
# inside the benchmark), then the multicore speedup gate: 4 workers
# must be at least 0.8 × min(4, CPUs) times as fast as 1. On builders
# with fewer than 2 CPUs the gate logs an explicit SKIP — a visible
# skip, never a silent pass.
echo "== go test -race -bench EngineRegions -cpu 1,4 (smoke) =="
go test -race -run '^$' -bench 'BenchmarkEngineRegions' -benchtime 1x -cpu 1,4 .

# one -v run is both the log and the gate: its output goes to a temp
# file, the SKIP/PASS/FAIL/speedup lines are printed, and its exit
# status decides (POSIX sh has no pipefail to keep it through a pipe)
echo "== go test engine multicore speedup gate (>=0.8x min(4, CPUs) at 4 workers) =="
speedup_log="$(mktemp)"
speedup_ok=1
go test -count=1 -run 'TestEngineParallelSpeedup' -v . >"$speedup_log" 2>&1 || speedup_ok=0
grep -E 'SKIP|PASS|FAIL|speedup' "$speedup_log" || true
if [ "$speedup_ok" -ne 1 ]; then
	cat "$speedup_log"
	rm -f "$speedup_log"
	exit 1
fi
rm -f "$speedup_log"

# the L-shot gate fractures the EXPERIMENTS.md L-shape suite with both
# mbf and mbf-l under the race detector and asserts the never-worse
# guarantee: per shape, mbf-l flashes <= mbf shots at no more CD
# violations. The determinism companion pins identical shot and pair
# lists across 1/2/8 engine workers.
echo "== go test -race L-shot gate (flashes <= rectangle shots) =="
go test -race -count=1 -run 'TestLShotSuiteGate|TestLShotEngineDeterminism' .

# the fan-outs inside one solve: goroutines scoring single moves and
# ±d edge pairs (the two-move scan) through their own cover.Scorers
# against one evaluator (bit-identical to DeltaCost and EdgeDeltas,
# counters folded exactly) and the engine.Pool fan-out helper (inline
# on a zero-token pool, tokens returned, helper panics re-raised),
# repeated under the race detector; the regions of one instance solved
# concurrently, drawing from the instance's one mutex-guarded arena;
# then MBF on ILT-1 and ILT-3 at 1, 2 and 8 workers must return
# identical shot lists
echo "== go test -race fan-outs inside one solve =="
go test -race -count=10 -run '^TestScorersConcurrent(EdgeDeltas)?$' ./internal/cover
go test -race -count=10 -run 'TestPoolFan' ./internal/fracture/engine
go test -race -count=10 -run 'TestSolveParallelDeterminism' ./internal/fracture/engine
go test -race -count=3 -run 'TestSingleRegionDeterminism/^ILT-[13]$' .

# the evaluator cross-check mode: every commit path of cover.Eval's one
# strip scanner (Add, Remove, SetShot/ApplyDelta, Pair, Unpair, resets)
# is asserted against a scan of its own dose field (fail and live
# bitmaps) and a from-scratch dose accumulation, every sparse score
# against the dense one bit for bit (and each move of a two-move edge
# scan against its own one-move scan), and every float32 strip fill
# against the float64 reference — first over the randomized property
# sequences, then on real mbf-l solves, whose repair loops drive paired
# moves, pair splits and snapshot restores, and last on the golden MBF
# and MBF-L solves, which score every move the shipped solvers make
echo "== go test cover under MASKFRAC_EVAL_CHECK =="
MASKFRAC_EVAL_CHECK=1 go test -count=1 ./internal/cover
echo "== go test L-shot gate under MASKFRAC_EVAL_CHECK =="
MASKFRAC_EVAL_CHECK=1 go test -count=1 -run 'TestLShotSuiteGate|TestLShotEngineDeterminism' .
echo "== go test golden shot lists under MASKFRAC_EVAL_CHECK =="
MASKFRAC_EVAL_CHECK=1 go test -count=1 -run TestGoldenShotLists .

echo "check ok"
