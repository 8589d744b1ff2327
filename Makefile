GO ?= go

.PHONY: all vet build test race benchmod examples examples-update fuzz corpus corpus-update experiments experiments-update profile lint ci

all: ci

vet:
	$(GO) vet ./...

# Static analysis: go vet plus the repo's own analyzer suite
# (cmd/coefficientlint), which enforces the determinism and
# error-handling contracts from DESIGN.md §9/§14.  staticcheck runs too
# when it is on PATH; STATICCHECK_VERSION pins the release CI should
# install.  The coefficientlint run is wall-clock budgeted: the
# interprocedural passes (call graph + taint fixpoint) must stay fast
# enough that the full suite never becomes the long pole of CI.
STATICCHECK_VERSION ?= 2024.1.1
LINT_BUDGET_SECONDS ?= 60
lint: vet
	@start=$$(date +%s); \
	$(GO) run ./cmd/coefficientlint ./... || exit $$?; \
	elapsed=$$(( $$(date +%s) - start )); \
	echo "coefficientlint: clean in $${elapsed}s (budget $(LINT_BUDGET_SECONDS)s)"; \
	if [ $$elapsed -gt $(LINT_BUDGET_SECONDS) ]; then \
		echo "coefficientlint exceeded the $(LINT_BUDGET_SECONDS)s wall-clock budget" >&2; \
		exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (pin: $(STATICCHECK_VERSION))"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle=on randomizes test execution order within each package, so
# accidental inter-test state dependence fails loudly instead of riding
# on declaration order.
race:
	$(GO) test -race -shuffle=on ./...

# bench/ is a separate module, so the root `go test ./...` skips it;
# it compiles against the sim API, so vet and test it offline here.
benchmod:
	cd bench && GOPROXY=off $(GO) vet ./... && GOPROXY=off $(GO) test -count=1 ./...

# Run every example program end to end and diff its stdout against the
# golden results/examples/<name>.txt: compiling them is not enough, since
# an example that builds can still fail (or log.Fatal) at run time or
# print something else.  `make examples-update` rewrites the goldens
# after an intended behavior change.
examples:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for dir in examples/*/; do \
		name=$$(basename "$$dir"); \
		echo "== go run ./$$dir"; \
		$(GO) run "./$$dir" > "$$out" || exit 1; \
		diff -u "results/examples/$$name.txt" "$$out" || exit 1; \
	done

examples-update:
	@mkdir -p results/examples; \
	for dir in examples/*/; do \
		name=$$(basename "$$dir"); \
		echo "== go run ./$$dir > results/examples/$$name.txt"; \
		$(GO) run "./$$dir" > "results/examples/$$name.txt" || exit 1; \
	done

# Short fuzz passes over the scenario-DSL parser, the wire-format
# decoder and the trace JSON encoder; FUZZTIME can be raised for deeper
# runs.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/scenario/
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/frame/
	$(GO) test -run=^$$ -fuzz=FuzzJSONWriter -fuzztime=$(FUZZTIME) ./internal/trace/

# Quick-mode scenario corpus (DESIGN.md §13): generate CORPUSCOUNT
# scenarios from CORPUSSEED, run them differentially under CoEfficient,
# FSPEC and adaptive CoEfficient with the invariant catalog armed,
# verify outcomes are byte-identical at 1 and 8 workers, and diff the
# results against the committed golden store.  `make corpus-update`
# rewrites the store after an intended behavior change.
CORPUSSEED ?= 1
CORPUSCOUNT ?= 200
CORPUSGOLDEN ?= results/corpus/golden-quick.json
corpus: build
	$(GO) run ./cmd/coefficientcorpus run -seed $(CORPUSSEED) -count $(CORPUSCOUNT) -quick -verify-parallel 8
	$(GO) run ./cmd/coefficientcorpus diff -seed $(CORPUSSEED) -count $(CORPUSCOUNT) -quick -golden $(CORPUSGOLDEN)

corpus-update: build
	$(GO) run ./cmd/coefficientcorpus diff -seed $(CORPUSSEED) -count $(CORPUSCOUNT) -quick -golden $(CORPUSGOLDEN) -update

# Full-run experiment tables as a golden, like the corpus: regenerate the
# text and CSV tables and the SVG charts of `-experiment all` into a
# temporary directory and diff them against results/ (the corpus store
# and the example goldens excluded).  `make experiments-update` rewrites
# results/ after an intended behavior change.
experiments: build
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/coefficientsim -experiment all -output $$dir/all_experiments.txt -svg $$dir && \
	$(GO) run ./cmd/coefficientsim -experiment all -format csv -output $$dir/all_experiments.csv && \
	diff -r -x corpus -x examples results $$dir; \
	status=$$?; rm -rf "$$dir"; exit $$status

experiments-update: build
	$(GO) run ./cmd/coefficientsim -experiment all -output results/all_experiments.txt -svg results
	$(GO) run ./cmd/coefficientsim -experiment all -format csv -output results/all_experiments.csv

# Profile the hot path two ways into PROFDIR: CPU/alloc profiles of a
# full experiment sweep via cmd/coefficientsim, plus the engine
# micro-benchmarks with the go test profiler.  Inspect with
# `go tool pprof -top $(PROFDIR)/cpu.pprof`.
PROFDIR ?= prof
PROFEXP ?= fig1
profile: build
	mkdir -p $(PROFDIR)
	$(GO) run ./cmd/coefficientsim -experiment $(PROFEXP) -quick -parallel 1 \
		-cpuprofile $(PROFDIR)/cpu.pprof -memprofile $(PROFDIR)/mem.pprof >/dev/null
	$(GO) test -run=^$$ -bench 'BenchmarkFig1RunningTime|BenchmarkFig5DeadlineMissRatio|BenchmarkSimulateCycle' \
		-benchmem -benchtime 50x -count 1 \
		-cpuprofile $(PROFDIR)/bench_cpu.pprof -memprofile $(PROFDIR)/bench_mem.pprof -o $(PROFDIR)/bench.test .
	@echo "profiles written to $(PROFDIR)/ (inspect: go tool pprof -top $(PROFDIR)/cpu.pprof)"

ci: lint build test race benchmod examples
