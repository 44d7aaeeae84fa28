#!/bin/sh
# CI gate: vet, build, race-test, and short-benchmark the repo, then
# compare its performance against the parent commit on this host
# (scripts/benchgate: perfbench workloads and Go benchmarks, run
# alternately at HEAD~1 and the working tree; needs a parent commit).
# Run from anywhere; operates on the repository containing it.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt (root and perfbench modules)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== net non-test Go lines outside perfbench/ (informational, tracked in ROADMAP.md; no gate)"
find . -path ./perfbench -prune -o -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

echo "== quickstart example (the facade builds both techniques through NewSimulation)"
go run ./examples/quickstart

echo "== go test -short -race (quick suites + chaos harness under the race detector)"
go test -short -race ./...

echo "== go test (full suites: goldens, E18, fault integration)"
go test ./...

echo "== benchmark module: vet and tests (digests, BENCHMARK.json parity, tiny workloads)"
# perfbench is a module of its own, so ./... above never reaches it.
(cd perfbench && go vet ./... && go test ./...)

echo "== short benchmarks (interval engines)"
go test -bench 'BenchmarkFigure8a$|BenchmarkTable4$' -benchmem -benchtime 3x -run '^$' .

echo "== admission-scan microbenchmarks (striped hot queue and spread queue, VDR on Table 3)"
go test -bench 'BenchmarkAdmit' -benchmem -benchtime 50x -run '^$' ./internal/sched

echo "== preload microbenchmarks (striped bulk preload at the hotset geometry, VDR warm start on Table 3)"
go test -bench 'BenchmarkStorePreload$' -benchmem -benchtime 20x -run '^$' ./internal/core
go test -bench 'BenchmarkVDRWarmStart$' -benchmem -benchtime 200x -run '^$' ./internal/sched

echo "== kernel calendar microbenchmarks (short mode)"
go test -bench 'BenchmarkCalendar' -benchmem -benchtime 100000x -run '^$' ./internal/sim

echo "== golden dumps (52-config sweep + staggered strides + hot queues + VDR, byte-identical)"
go test -run 'TestGoldenSweep$|TestGoldenStaggered$|TestStaggeredKMMatchesSimpleGolden$|TestGoldenHotQueue$|TestGoldenVDR$' ./internal/sched

echo "== cache-enabled quick sweep under the race detector (memory tier + open Zipf arrivals)"
go run -race ./cmd/sweep -scale quick -technique striped -stations 64 -dist 20 -zipf 0.7 -arrivals 6000 -cachemb 256 -batchwindow 8 -csv

echo "== 2-server cluster quick sweep per dispatch policy, under the race detector"
for policy in roundrobin leastloaded popularity; do
	echo "-- dispatch: $policy"
	go run -race ./cmd/sweep -servers 1,2 -dispatch "$policy" -seed 1 -csv
done

echo "== 4-server kill-one failover run per dispatch policy, under the race detector (DESIGN.md §14)"
for policy in roundrobin leastloaded popularity; do
	echo "-- dispatch: $policy"
	go run -race ./cmd/ssim -scale quick -servers 4 -dispatch "$policy" -zipf 1.1 -arrivals 6000 \
		-faults 'server:1@2100-2700' -healbudget 2 -samples 150 -seed 1 >/dev/null
done

echo "== quick sweep per registered technique"
for tkey in $(go run ./cmd/sweep -list-techniques | awk '{print $1}'); do
	echo "-- technique: $tkey"
	go run ./cmd/sweep -scale quick -technique "$tkey" -stations 1,8 -dist 20 -csv
done
echo "-- technique: staggered (explicit stride k=1)"
go run ./cmd/sweep -scale quick -technique staggered -k 1 -stations 1,8 -dist 20 -csv

echo "== regression gate: parent (HEAD~1) vs working tree, paired on this host"
go run ./scripts/benchgate HEAD~1

echo "CI OK"
