# Pre-merge gate and convenience targets. `make check` is the gate:
# vet, the elsivet house-rule linters, and the full test suite under
# the race detector (the update processor serves queries concurrently
# with background rebuilds, so -race is not optional here).

GO ?= go

.PHONY: check build test race vet lint bench microbench serve serve-durable loadtest loadtest-shards loadtest-adaptive

check: lint race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet is kept as a standalone alias; `make lint` runs it too, so the
# pre-merge gate needs only one lint entry point.
vet:
	$(GO) vet ./...

# lint runs go vet plus cmd/elsivet, the eight-analyzer house-rule
# suite (lockedcall, atomicfield, floateq, detrand, ctxprop, gorolife,
# lockorder, noalloc — see DESIGN.md §7 and §12).
#
# There is no auto-fixer: a finding is resolved by fixing the code, by
# marking the enforced surface with a directive (`//elsi:noalloc` on a
# function, `//elsi:lockorder [before=field,...]` on a mutex field —
# grammar in DESIGN.md §12), or, for a deliberate exception, by
# `//lint:ignore <analyzer> <reason>` on the flagged line. Reasons are
# mandatory, and ignores that no longer suppress anything are
# themselves reported.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/elsivet ./...

# bench writes the machine-readable build/query medians (serial vs
# parallel workers, plus window/kNN latency, allocations per point
# query, and batched throughput) consumed by README's Performance and
# Query performance sections.
bench:
	$(GO) run ./cmd/elsibench -json -n 50000 -queries 300 -epochs 40 > BENCH_pr5.json

microbench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# serve runs the long-running server (HTTP+JSON on :8080, binary
# protocol on :9090) over a generated uniform data set. Ctrl-C drains
# in-flight requests before exiting.
serve:
	$(GO) run ./cmd/elsid -http 127.0.0.1:8080 -tcp 127.0.0.1:9090 -n 100000

# serve-durable adds the persistence layer: updates are WAL-logged
# before acknowledgement and the trained index is snapshotted on every
# rebuild swap and on clean shutdown. Kill it and run it again — the
# second boot recovers from elsid-data/ without training a model.
serve-durable:
	$(GO) run ./cmd/elsid -http 127.0.0.1:8080 -tcp 127.0.0.1:9090 -n 100000 -data elsid-data -fsync always

# loadtest stands up the full serving stack in-process and drives both
# transports with seeded open-loop Poisson arrivals, writing the
# p50/p99/p999 latency report consumed by README's Serving section.
loadtest:
	$(GO) run ./cmd/elsiload -inproc -n 50000 -rate 2000 -duration 3s -conns 64 -o BENCH_pr6.json

# loadtest-shards sweeps the spatial shard count at the loadtest
# workload — one in-proc TCP run per S, directly comparable rows —
# writing the report consumed by README's Sharding section. Pin
# GOMAXPROCS >= 4 so the per-shard parallelism is real.
loadtest-shards:
	GOMAXPROCS=4 $(GO) run ./cmd/elsiload -sweep-shards 1,4,16 -n 50000 -rate 2000 -duration 3s -conns 64 -o BENCH_pr8.json

# loadtest-adaptive is the cache off/on comparison on the Zipf-skewed
# read-heavy workload: identical stack and request stream in both
# runs, the generation-stamped result cache the only variable. The
# report (consumed by README's Adaptivity section) carries the cache
# hit-rate and the per-shard workload monitor/profile breakdown.
loadtest-adaptive:
	GOMAXPROCS=4 $(GO) run ./cmd/elsiload -sweep-cache -adaptive -n 50000 -rate 2000 -duration 4s -warmup 1s -conns 64 -zipf 1.5 -hotspots 128 -mix 60:15:10:10:5 -o BENCH_pr10.json
