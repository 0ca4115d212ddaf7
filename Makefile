# Reproduction of "Tiny Packet Programs for low-latency network
# control and monitoring" (HotNets 2013) on a simulated substrate.

GO        ?= go
BENCH     ?= .
BENCHTIME ?= 1x

.PHONY: all build vet lint test race check perfbench-smoke soak soak-pooldebug scenario allocgate allocgate-baseline fuzz bench bench-json bench-save reroute experiments clean

# Packages whose behavior must be a pure function of inputs and seeds;
# the determinism analyzers (notime, norand, maporder) gate them.
LINT_PKGS = ./internal/netsim ./internal/asic ./internal/tcpu ./internal/faults ./internal/guard \
	./internal/core ./internal/endhost ./internal/inband ./internal/reflex \
	./internal/fabric ./internal/fabric/scenario ./internal/fabric/yamlite

# Packages that handle pooled packets; the poollife ownership analyzer
# (use-after-Recycle, double-Recycle, retain-without-Adopt,
# recycle-after-shallow-copy) gates them.
POOL_PKGS = ./internal/core ./internal/netsim ./internal/asic ./internal/endhost ./internal/inband \
	./internal/fabric ./internal/reflex

# Packages with //alloc:free hot-path annotations; the escape gate
# pins them against ALLOCGATE.json.
ALLOC_PKGS = ./internal/core ./internal/tcpu ./internal/netsim ./internal/asic ./internal/endhost \
	./internal/reflex

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs vet, fails on any file gofmt would change, and runs the
# repository's own analyzers (see tools/analyzers): the determinism
# suite over the simulation core and the poollife packet-ownership
# suite over the packages that handle pooled packets.
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./tools/analyzers/cmd/determinismlint $(LINT_PKGS)
	$(GO) run ./tools/analyzers/cmd/poollifelint $(POOL_PKGS)

# allocgate asserts that every //alloc:free function still compiles
# without heap escapes, pinned against the committed ALLOCGATE.json
# baseline (any drift — regression, improvement, or annotation change —
# fails until the baseline is consciously regenerated).
allocgate:
	$(GO) run ./tools/allocgate $(ALLOC_PKGS)

# allocgate-baseline regenerates ALLOCGATE.json after an audited change
# to the gated functions; commit the result.
allocgate-baseline:
	$(GO) run ./tools/allocgate -write $(ALLOC_PKGS)

# Tests run with -shuffle=on: a deterministic simulation must not care
# what order its tests execute in, and shuffling catches shared-state
# leaks between them.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# perfbench-smoke vets and short-tests the benchmark harness.  perfbench/
# is its own Go module, so `go build ./...` and `go test ./...` skip it;
# without this target a change to an API it calls could break the
# benchmark while every other gate stays green.
perfbench-smoke:
	cd perfbench && $(GO) vet . && $(GO) test -short .

# check is the tier-1 gate: vet, build, the full test suite under the
# race detector (with shuffled test order), and the perfbench smoke.
check: vet build race perfbench-smoke

# soak runs the composed chaos scenarios verbosely: the crash-restart
# soak (reboots + bursty loss + blackhole + throttling), the
# hostile-tenant isolation soak (forged-write flood vs victim RCP* and
# accounting), and the reflex fast-reroute soak (seeded gray link flaps
# racing a leaf crash-restart against the reflex arm's evidence and
# TCAM writes).  The seeds are pinned inside the tests (1, 7, 42) and
# each runs twice: both runs must produce identical results word for
# word.
soak:
	$(GO) test -run 'TestChaosSoak|TestHostileSoak|TestReflexSoak' -v -count=1 ./internal/chaos

# scenario exercises the fabric control plane end to end: the
# controller/converge/scenario-runner test suites verbosely, the
# fabricctl CLI tests, the root-package proof that fabric-managed state
# stays off the packet hot path, and the converge-under-churn
# experiment (route churn racing crash-restarts, epoch races rolled
# forward under the retry budget).
scenario:
	$(GO) test -v -count=1 ./internal/fabric/... ./cmd/fabricctl
	$(GO) test -run TestFabricControlPlaneOffHotPath -v -count=1 .
	$(GO) run ./cmd/experiments converge

# soak-pooldebug reruns the same scenarios with the packet-pool
# sanitizer compiled in (Recycle poisons buffers and bumps slot
# generations; stale references and clobbered canaries panic at the
# offending call site) under the race detector.
soak-pooldebug:
	$(GO) test -race -tags pooldebug -run 'TestChaosSoak|TestHostileSoak|TestReflexSoak' -v -count=1 ./internal/chaos

# fuzz-target runs fuzz target $(1) in package $(2) for 10s.  It first
# checks that the target exists: `go test -fuzz` with a pattern that
# matches nothing prints PASS, so a renamed or deleted target would
# otherwise pass while fuzzing nothing.
define fuzz-target
	$(GO) test -list '^$(1)$$' $(2) | grep -qx '$(1)' || { echo "fuzz target $(1) not found in $(2)"; exit 1; }
	$(GO) test -fuzz='^$(1)$$' -fuzztime=10s $(2)
endef

# fuzz smoke-tests the three soundness properties: verified programs
# never trip a dynamic fault, guest programs never escape their tenant
# grant (and, verified against it, are never denied), and the TCPU
# executor keeps its contract on arbitrary wire programs (no panics,
# FlagError exactly on a fault, span recording changes nothing else).
fuzz:
	$(call fuzz-target,FuzzVerify,./internal/verify)
	$(call fuzz-target,FuzzGuard,./internal/asic)
	$(call fuzz-target,FuzzExec,./internal/tcpu)

# bench runs every benchmark once (BENCHTIME=1x) as a smoke test; set
# BENCHTIME=2s BENCH=PipelineTelemetry for real measurements.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime $(BENCHTIME) .

# bench-json emits the same run in `go test -json` form for tooling.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime $(BENCHTIME) -json .

# bench-save runs the benchmarks and commits the measured numbers to
# BENCH_obs.json via tools/benchjson, which fails if any benchmark
# produced no result.  The TCPU execution-path trajectory (the
# interpreter's per-program cost, plus the end-to-end pipeline) is
# carved out of the same run into BENCH_tcpu.json.  Set BENCHTIME=2s for
# publication-grade numbers; the default 1x is the smoke/CI setting.
bench-save:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime $(BENCHTIME) -json . \
		| $(GO) run ./tools/benchjson -o BENCH_obs.json \
			-extra 'BENCH_tcpu.json=^Benchmark(TCPU|PipelineTelemetry)'

# reroute runs the reflex fast-reroute experiment (dataplane
# sub-RTT repair vs prober-driven controller repair on a killed
# uplink) and refreshes the committed results/reroute.csv.
reroute:
	$(GO) run ./cmd/experiments -out results reroute

# experiments regenerates every paper artifact with telemetry enabled.
experiments:
	mkdir -p out
	$(GO) run ./cmd/experiments -out out -metrics out/metrics.jsonl -trace out/spans.jsonl all

clean:
	rm -rf out
