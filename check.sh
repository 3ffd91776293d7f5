#!/bin/sh
# Tier-1 gate: build, vet, formatting, and the race-enabled test suite.
# Run before every commit; CI runs the same sequence.
set -eu

cd "$(dirname "$0")"

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== benchmark harness build + vet (perfbench/ is its own module) =="
go build -C perfbench -o /dev/null ./...
go vet -C perfbench ./...

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== engine differential (wide vs compiled vs reference) =="
go test -run 'Differential|CompiledVsReference|Wide' -count=1 ./internal/logic/...

echo "== zero-allocation gates and bulk-draw kernel differentials (no -race) =="
# The allocation gates skip under -race, whose instrumentation
# allocates, so they run here without it, together with the block-draw
# kernels' differential tests against their per-draw forms.
go test -count=1 -run 'Allocs|ZeroAlloc' ./internal/fleet ./internal/emfield ./internal/core
go test -count=1 -run 'Bulk|FillNorm|SkipAtLeast|SkipThreshold|PerDrawForm|AccumulateDraw' ./internal/frand ./internal/trace ./internal/degrade ./internal/fleet

echo "== capture replay, cold then warm process-wide cache =="
# The second pass of each test runs against the capture cache the first
# pass filled; replayed orbits must still match simulation bit for bit.
go test -run 'Orbit|Replay|IdleChain' -count=2 ./internal/chip

echo "== go test -race -shuffle=on =="
go test -race -shuffle=on ./...

echo "== campaign smoke (generate, search, export) =="
# Tiny 8-Trojan campaign with a 2-generation search; cmd/netlist exits
# nonzero if the search finds no partial-trigger coverage at all.
go run ./cmd/netlist -campaign 8 -member 1 -search 2 -stats=false -verilog /dev/null >/dev/null

echo "== CPA smoke (key recovery through the sensor coil) =="
# The example exits nonzero below 12/16 recovered key bytes.
go run ./examples/cpa >/dev/null

echo "all checks passed"
