GO ?= go

.PHONY: all build test race vet fmt-check loc traffic bench bench-check bench-real perf perf-counts fuzz-short chaos chaos-cmp ci

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
# those plus the four neighbours they share code with (the monitor, which
# owns the subtree records the ranks serve, and namespace, rados and
# transport) — so code moved next door does not count as removed — of the
# two execution backends plus the runtime seam they share, for the same
# reason, and of the evaluation harness (internal/bench), the repo's
# largest package.
LOC = cat $$(ls $(1:%=internal/%/*.go) | grep -v _test.go) | grep -vcE '^\s*(//.*)?$$'
loc:
	@echo "client + mds + chaos: $$($(call LOC,client mds chaos))"
	@echo "client + mds + chaos + monitor + namespace + rados + transport: $$($(call LOC,client mds chaos monitor namespace rados transport))"
	@echo "sim + realrt + runtime: $$($(call LOC,sim realrt runtime))"
	@echo "bench: $$($(call LOC,bench))"

# traffic is the API gate: every function under internal/ or in the root
# package (the cudele facade) runs in some main's run, or it is deleted,
# or it is listed with its class and reason in results/TRAFFIC_KEEP.txt
# ("symbol (class) reason" per line). It builds every main with coverage
# of the whole module and inlining off into a temp dir and runs: the
# fifteen experiments at -scale 0.05; a traced and profiled run of
# fig3a, multimds and mergescale; the real backend's heatskew; the
# 1 500-seed chaos sweep; one second of each benchmark workload, and
# real_io's traced pass with its probes; the four examples; the
# cmd/cudele golden session on two ranks, and on the real backend serving
# -admin; and journal-tool's demo, inspect, dump,
# erase and roundtrip. A function none of them executed (0.0 % in go
# tool cover -func) is named as go tool nm names it
# (cudele/internal/pkg.(*Recv).Name, cudele.(*Recv).Name), by joining
# cover's file:line to the func declarations in those files. A second
# pass lists every top-level var declared there (single and var (...)
# forms) that no main links: with inlining off the linker drops a
# statically initialised var nothing references, so go tool nm on the
# same binaries names one only when some main links it (a var whose
# initializer runs code is always kept by its package's init, so this
# check cannot flag it). The cold functions and unlinked vars must equal
# the keep file's entries: a difference in either direction fails, so a
# new function no run reaches and a listed one that now runs or is gone
# both show (~60 s on two cores).
MAINS = cmd/cudele cmd/cudele-bench cmd/journal-tool benchmark \
	examples/homedirs examples/quickstart examples/checkpoint examples/partialresults
WORKLOADS = sim_storm real_rpc_write real_rpc_read real_decoupled real_io
traffic:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && repo=$$PWD && \
	for m in $(MAINS); do \
		$(GO) build -cover -coverpkg=cudele/... -gcflags=all=-l -o "$$tmp/bin/$$(basename $$m)" ./$$m && \
		$(GO) tool nm "$$tmp/bin/$$(basename $$m)" >> "$$tmp/nm" || exit 1; \
	done; \
	mkdir "$$tmp/cov" && export GOCOVERDIR="$$tmp/cov" && cd "$$tmp" && \
	bin/cudele-bench -scale 0.05 all > /dev/null && \
	bin/cudele-bench -scale 0.005 -trace t.json -metrics m.txt -cpuprofile c.prof \
		fig3a multimds mergescale > /dev/null && \
	bin/cudele-bench -backend real -scale 0.002 heatskew > /dev/null && \
	bin/cudele-bench -chaos 1500 -seed 1 > /dev/null && \
	for w in $(WORKLOADS); do \
		bin/benchmark --workload $$w --seed 1 --seconds 1 --trace 0 --out out > /dev/null || exit 1; \
	done && \
	bin/benchmark --workload real_io --seed 1 --seconds 1 --trace 1 --out out > /dev/null && \
	for e in $(notdir $(filter examples/%,$(MAINS))); do bin/$$e > /dev/null || exit 1; done && \
	bin/cudele -ranks 2 "$$repo/cmd/cudele/testdata/session.txt" > /dev/null && \
	bin/cudele -backend real -admin 127.0.0.1:0 "$$repo/cmd/cudele/testdata/session.txt" > /dev/null && \
	bin/journal-tool demo j > /dev/null && bin/journal-tool inspect j > /dev/null && \
	bin/journal-tool dump j > /dev/null && bin/journal-tool erase j 1 2 > /dev/null && \
	bin/journal-tool roundtrip j > /dev/null && \
	cd "$$repo" && $(GO) tool covdata textfmt -i="$$tmp/cov" -o "$$tmp/cov.txt" && \
	$(GO) tool cover -func="$$tmp/cov.txt" > "$$tmp/func.txt" || exit 1; \
	srcs=$$(ls *.go internal/*/*.go | grep -v _test.go); \
	awk 'FNR == 1 { pkg = "cudele/" FILENAME; sub(/\/[^\/]*$$/, "", pkg) } \
		/^func / { \
			s = $$0; sub(/^func /, "", s); recv = ""; \
			if (s ~ /^\(/) { \
				recv = s; sub(/\).*/, "", recv); sub(/^\(([A-Za-z0-9_]+ )?/, "", recv); sub(/\[.*/, "", recv); \
				sub(/^[^)]*\) */, "", s); \
				recv = recv ~ /^\*/ ? "(" recv ")." : recv "."; \
			} \
			sub(/[^A-Za-z0-9_].*/, "", s); print "cudele/" FILENAME ":" FNR ":", pkg "." recv s; \
		}' $$srcs > "$$tmp/decls"; \
	awk -v nfile="$$tmp/nfuncs" 'NR == FNR { key[$$1] = $$2; next } \
		$$1 ~ /^cudele\/(internal\/|[^\/]*:)/ { n++; if ($$NF == "0.0%") print ($$1 in key ? key[$$1] : "undeclared:" $$1) } \
		END { print n + 0 > nfile }' "$$tmp/decls" "$$tmp/func.txt" | sort > "$$tmp/cold"; \
	awk '$$NF ~ /^cudele(\/internal\/|\.)/ { print $$NF }' "$$tmp/nm" | sort -u > "$$tmp/linked"; \
	awk 'FNR == 1 { pkg = "cudele/" FILENAME; sub(/\/[^\/]*$$/, "", pkg); blk = 0 } \
		blk && /^\)/ { blk = 0 } \
		/^var \($$/ { blk = 1; next } \
		/^var / || (blk && /^\t[A-Za-z_]/) { \
			s = $$0; sub(/^(var |\t)/, "", s); \
			if (match(s, /^[A-Za-z_][A-Za-z0-9_]*(, [A-Za-z_][A-Za-z0-9_]*)*/)) { \
				n = split(substr(s, 1, RLENGTH), v, /, /); \
				for (i = 1; i <= n; i++) if (v[i] != "_") print pkg "." v[i]; \
			} \
		}' $$srcs | sort -u > "$$tmp/vars"; \
	awk 'NR == FNR { linked[$$1] = 1; next } !($$1 in linked)' "$$tmp/linked" "$$tmp/vars" > "$$tmp/unlinkedvars"; \
	sort "$$tmp/cold" "$$tmp/unlinkedvars" > "$$tmp/found"; \
	grep -v '^#' results/TRAFFIC_KEEP.txt | cut -d' ' -f1 | sort > "$$tmp/keep"; \
	if ! diff -u --label results/TRAFFIC_KEEP.txt --label cold "$$tmp/keep" "$$tmp/found"; then \
		echo "traffic: the functions no run reaches and the vars no main links differ from results/TRAFFIC_KEEP.txt"; \
		echo "  (-: listed but run, linked or gone, so drop the line; +: cold, so delete it or list it with its reason)"; \
		exit 1; \
	fi; \
	echo "traffic: $$(wc -l < "$$tmp/cold") of $$(cat "$$tmp/nfuncs") functions under internal/ and in the root package run in no main's run and $$(wc -l < "$$tmp/unlinkedvars") of $$(wc -l < "$$tmp/vars") package-level vars are linked by no main, each listed with its reason in results/TRAFFIC_KEEP.txt"

# bench regenerates every table at a CI-friendly scale, each experiment's
# runs on GOMAXPROCS goroutines, and refreshes the machine-readable
# baselines under results/. A baseline holds only what the seed and scale
# reproduce, so the files are byte-identical at any GOMAXPROCS (see
# internal/bench/runner.go).
bench:
	$(GO) run ./cmd/cudele-bench -scale 0.05 -json results all

# bench-check is the refactoring gate: regenerate every table into a temp
# dir at the baselines' scale and diff each BENCH_*.json against results/,
# exactly. Any difference — a simulated-time cell, a counter, a note, a
# missing or extra table — fails.
bench-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/cudele-bench -scale 0.05 -json "$$tmp" all > /dev/null && \
	fail=0 && \
	for f in $$( (cd results && ls BENCH_*.json; cd "$$tmp" && ls BENCH_*.json) | sort -u); do \
		if ! diff -u results/$$f "$$tmp/$$f"; then fail=1; fi; \
	done; \
	if [ $$fail -ne 0 ]; then echo "bench-check: tables differ from results/"; exit 1; fi; \
	echo "bench-check: all $$(ls results/BENCH_*.json | wc -l) tables byte-identical to results/"

# bench-real runs fig3a on the real backend (goroutines, wall clocks,
# an fsynced object log in each run's own temp dir) side by side with its
# simulated prediction. The wall-clock columns are machine-dependent, so
# the output goes to results/real/ and is not a committed baseline.
bench-real:
	$(GO) run ./cmd/cudele-bench -backend real -scale 0.01 \
		-json results/real fig3a

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
# RPC, revoke or merged event on the decoupled path shows the same way,
# and for real_rpc_write and real_rpc_read a misrouted or redirected
# request moves mds_requests or client_rpcs; real_io names four (its segment and object-write counts depend on which
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

# fuzz-short runs every decode-boundary fuzzer — the journal's, the object
# log's, the directory objects' and the policies file's — the dentry name
# table's model fuzzer, the listing sort's fuzzer against slices.Sort and
# the scrub's fuzzer, which holds Check's scan to its report, for a
# bounded burst each: long enough to hit mutated corpus inputs, short
# enough for CI (eight targets, about 80 s).
fuzz-short:
	$(GO) test ./internal/journal -run='^FuzzDecode$$' -fuzz=FuzzDecode -fuzztime=10s
	$(GO) test ./internal/journal -run='^FuzzCursorExport$$' -fuzz=FuzzCursorExport -fuzztime=10s
	$(GO) test ./internal/rados -run='^FuzzLogReplay$$' -fuzz=FuzzLogReplay -fuzztime=10s
	$(GO) test ./internal/namespace -run='^FuzzDecodeDir$$' -fuzz=FuzzDecodeDir -fuzztime=10s
	$(GO) test ./internal/namespace -run='^FuzzDentries$$' -fuzz=FuzzDentries -fuzztime=10s
	$(GO) test ./internal/namespace -run='^FuzzSortNames$$' -fuzz=FuzzSortNames -fuzztime=10s
	$(GO) test ./internal/namespace -run='^FuzzCheck$$' -fuzz=FuzzCheck -fuzztime=10s
	$(GO) test ./internal/policy -run='^FuzzParseFile$$' -fuzz=FuzzParseFile -fuzztime=10s

# chaos runs the seeded fault-injection harness — 1 500 consecutive
# seeds, a hundred per cell of the fifteen-cell consistency x durability
# wheel, about 400 of them migrating the subtree mid-run — with the race
# detector on (~10 s on two cores). A failing seed's section of the
# report prints its fault plan, violations and flight dump (the trace's
# tail), and the command that reproduces it exactly:
# go run ./cmd/cudele-bench -chaos-replay SEED
chaos:
	$(GO) run -race ./cmd/cudele-bench -chaos 1500 -seed 1

# chaos-cmp is a refactor's byte-identity check on the fault schedules:
# the chaos report is a pure function of the code, so any schedule a
# change moved shows as a differing row. It builds cmd/cudele-bench from
# the working tree and from PARENT (default HEAD, exported with git
# archive into a temp dir), runs the 1 500-seed sweep with each build, and
# fails unless the two reports are byte-identical. On a difference it
# prints the first differing rows, how many rows differ and how many of
# them in a column other than virt(s), and each cell's verdict counts on
# both sides.
PARENT ?= HEAD
chaos-cmp:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/parent" && git archive "$(PARENT)" | tar -x -C "$$tmp/parent" && \
	(cd "$$tmp/parent" && $(GO) build -o "$$tmp/parent-bench" ./cmd/cudele-bench) && \
	$(GO) build -o "$$tmp/change-bench" ./cmd/cudele-bench || exit 1; \
	"$$tmp/parent-bench" -chaos 1500 -seed 1 > "$$tmp/parent.txt"; \
	"$$tmp/change-bench" -chaos 1500 -seed 1 > "$$tmp/change.txt"; \
	if ! cmp -s "$$tmp/parent.txt" "$$tmp/change.txt"; then \
		diff "$$tmp/parent.txt" "$$tmp/change.txt" | head -n 20; \
		awk 'FNR == 1 { f++ } /^[0-9]/ { \
				row = $$0; $$8 = ""; \
				if (f == 1) { full[$$1] = row; rest[$$1] = $$0; next } \
				if (full[$$1] != row) { n++; if (rest[$$1] != $$0) m++ } \
			} \
			END { printf "chaos-cmp: %d rows differ, %d of them in a column other than virt(s)\n", n, m }' \
			"$$tmp/parent.txt" "$$tmp/change.txt"; \
		echo "chaos-cmp: verdicts per cell ($(PARENT) | working tree):"; \
		awk 'FNR == 1 { f++ } /^[0-9]/ { cell[$$2] = 1; if ($$9 == "ok") ok[f, $$2]++; else bad[f, $$2]++ } \
			END { for (c in cell) printf "  %-24s %4d ok %4d failed | %4d ok %4d failed\n", \
				c, ok[1, c], bad[1, c], ok[2, c], bad[2, c] }' \
			"$$tmp/parent.txt" "$$tmp/change.txt" | sort; \
		echo "chaos-cmp: the chaos report differs from $(PARENT)'s"; exit 1; \
	fi; \
	echo "chaos-cmp: the chaos report is byte-identical to $(PARENT)'s ($$(tail -n 1 "$$tmp/change.txt"))"

ci: fmt-check vet build test
