GO ?= go

.PHONY: all build test race vet fmt-check loc bench bench-seq bench-check bench-real perf perf-counts fuzz-short chaos ci

all: build test

build:
	$(GO) build ./...

# test is the tier-1 gate: vet runs first so an unsound change fails
# before any suite does.
test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# loc prints the sums a simplicity PR is judged by: non-test code lines
# (not blank, not a whole-line comment) of the protocol packages, of
# those plus the three neighbours they share code with — so code moved next
# door does not count as removed — of the two execution backends plus
# the runtime seam they share, for the same reason, and of the evaluation
# harness (internal/bench), the repo's largest package.
LOC = cat $$(ls $(1:%=internal/%/*.go) | grep -v _test.go) | grep -vcE '^\s*(//.*)?$$'
loc:
	@echo "client + mds + chaos: $$($(call LOC,client mds chaos))"
	@echo "client + mds + chaos + namespace + rados + transport: $$($(call LOC,client mds chaos namespace rados transport))"
	@echo "sim + realrt + runtime: $$($(call LOC,sim realrt runtime))"
	@echo "bench: $$($(call LOC,bench))"

# bench regenerates every table at a CI-friendly scale, in parallel, and
# refreshes the machine-readable baselines under results/. The tables are
# byte-identical to bench-seq (see internal/bench/runner.go).
bench:
	$(GO) run ./cmd/cudele-bench -scale 0.05 -json -outdir results all

bench-seq:
	$(GO) run ./cmd/cudele-bench -scale 0.05 -parallel 1 -json -outdir results all

# bench-check is the refactoring gate: regenerate every table into a temp
# dir at the baselines' scale and diff each BENCH_*.json against results/,
# ignoring only the wall_clock_seconds line. Any other difference — a
# simulated-time cell, a counter, a note, a missing or extra table — fails.
bench-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/cudele-bench -scale 0.05 -json -outdir "$$tmp" all > /dev/null && \
	fail=0 && \
	for f in $$( (cd results && ls BENCH_*.json; cd "$$tmp" && ls BENCH_*.json) | sort -u); do \
		if ! diff -u -I '"wall_clock_seconds"' results/$$f "$$tmp/$$f"; then fail=1; fi; \
	done; \
	if [ $$fail -ne 0 ]; then echo "bench-check: tables differ from results/"; exit 1; fi; \
	echo "bench-check: all $$(ls results/BENCH_*.json | wc -l) tables byte-identical to results/ (wall_clock_seconds aside)"

# bench-real runs fig3a on the real backend (goroutines, wall clocks,
# an fsynced object log) side by side with its simulated prediction. The
# wall-clock columns are machine-dependent, so the output goes to
# results/real/ and is not a committed baseline.
bench-real:
	$(GO) run ./cmd/cudele-bench -backend real -scale 0.01 \
		-datadir results/real/objects -json -outdir results/real fig3a

# perf runs the repo's host-performance benchmark (BENCHMARK.json) the way
# the driver does — one untraced 12-second run per workload — and prints
# each workload's reported end-to-end medians. Numbers are this machine's;
# compare two commits with alternating runs (benchmark/README.md).
perf:
	@for w in sim_storm real_rpc_write real_rpc_read real_decoupled real_io; do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 12 --trace 0 \
			| grep -A9 ' end-to-end ' || exit 1; \
	done

# perf-counts is the machine-independent slice of a performance gate: one
# second's repetitions of a workload at seed 1 must produce exactly the
# virtual time and protocol counters its results/PERF_COUNTS_<workload>.json
# names, on any machine — and only those: a file lists the keys that repeat
# exactly for its workload. For sim_storm a host-speed change to sim,
# transport, mds, journal or rados that moves one of them changed the
# schedule, not just the cost of running it; for real_decoupled an extra
# RPC, revoke or merged event on the decoupled path shows the same way;
# real_io names four (its segment and object-write counts depend on which
# client finishes first and seals the partial segment). A file may also
# carry a ceiling on alloc_b_per_op (the value when it was committed + 2 %;
# the metric repeats within 0.1 %), so an accidental allocation per
# operation fails here instead of landing. The target only reads the
# "#side" line every benchmark run prints.
perf-counts:
	@for f in results/PERF_COUNTS_*.json; do \
		w=$${f#results/PERF_COUNTS_}; w=$${w%.json}; \
		side=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | grep '^#side ') || exit 1; \
		got=$${side%%,\"measured\"*}; n=0; \
		for kv in $$(grep -o '"[a-z_]*":[0-9][0-9.]*' $$f | grep -v '"alloc_b_per_op_max"'); do \
			case "$$got" in *"$$kv",*|*"$$kv"}*) n=$$((n+1));; *) \
				printf 'perf-counts: %s differs from %s: no %s in\n%s\n' $$w $$f "$$kv" "$$got"; exit 1;; esac; \
		done; \
		max=$$(sed -n 's/.*"alloc_b_per_op_max":\([0-9.]*\).*/\1/p' $$f); \
		alloc=$$(echo "$$side" | sed 's/.*"alloc_b_per_op":\([0-9.]*\).*/\1/'); \
		if [ -n "$$max" ] && ! awk "BEGIN{exit !($$alloc <= $$max)}"; then \
			echo "perf-counts: $$w alloc_b_per_op $$alloc exceeds the ceiling $$max in $$f"; exit 1; fi; \
		echo "perf-counts: $$w equals $$f on all $$n keys it names$${max:+, alloc_b_per_op $$alloc <= $$max}"; \
	done

# fuzz-short runs the journal fuzzers and the object log's for a bounded
# burst each — long enough to hit mutated corpus inputs, short enough for
# CI (three targets, about 35 s).
fuzz-short:
	$(GO) test ./internal/journal -run='^FuzzDecode$$' -fuzz=FuzzDecode -fuzztime=10s
	$(GO) test ./internal/journal -run='^FuzzCursorExport$$' -fuzz=FuzzCursorExport -fuzztime=10s
	$(GO) test ./internal/rados -run='^FuzzLogReplay$$' -fuzz=FuzzLogReplay -fuzztime=10s

# chaos runs the seeded fault-injection harness — 1 500 consecutive
# seeds, a hundred per cell of the fifteen-cell consistency x durability
# wheel, about 400 of them migrating the subtree mid-run — with the race
# detector on (~10 s on two cores). A failing seed prints its fault plan,
# leaves a flight dump in chaos-dumps/, and reproduces exactly with:
# go run ./cmd/cudele-bench -chaos-replay SEED
chaos:
	$(GO) run -race ./cmd/cudele-bench -chaos 1500 -seed 1 -chaos-dumps chaos-dumps

ci: fmt-check vet build test
