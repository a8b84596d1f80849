# Pre-merge gate and convenience targets. `make check` is the gate:
# vet, the elsivet house-rule linters, and the full test suite under
# the race detector (the update processor serves queries concurrently
# with background rebuilds, so -race is not optional here).

GO ?= go

.PHONY: check build test race vet lint microbench serve serve-durable

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

# lint checks gofmt, then runs go vet plus cmd/elsivet, the
# eight-analyzer house-rule suite (lockedcall, atomicfield, floateq,
# detrand, ctxprop, gorolife, lockorder, noalloc — see DESIGN.md §7
# and §12).
#
# There is no auto-fixer: a finding is resolved by fixing the code, by
# marking the enforced surface with a directive (`//elsi:noalloc` on a
# function, `//elsi:lockorder [before=field,...]` on a mutex field —
# grammar in DESIGN.md §12), or, for a deliberate exception, by
# `//lint:ignore <analyzer> <reason>` on the flagged line. Reasons are
# mandatory, and ignores that no longer suppress anything are
# themselves reported.
lint:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) run ./cmd/elsivet ./...

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
# second boot recovers from elsid-data/ without training an index
# model. The rebuild predictor's FFN (and with -adaptive the scorer's
# two) still train at every boot, in the background: a write's rebuild
# check waits for the predictor, -adaptive rebuild selection for the
# scorer, and nothing else does. Restart-to-listening of an n=8,000, 4-shard store
# on a 2-core box went from 185 ms, when the boot trained the
# predictor first, to 11 ms.
serve-durable:
	$(GO) run ./cmd/elsid -http 127.0.0.1:8080 -tcp 127.0.0.1:9090 -n 100000 -data elsid-data -fsync always
