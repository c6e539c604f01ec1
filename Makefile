# Per-PR check: full build, the test suite, and the smoke guards — the
# degraded-mode sweep (fault rate 0.1, one seed — fails the process when
# resilient-crawl recovery or degraded accuracy regress), the serving
# smoke (a cached service's cold and warm rounds must match the
# sequential segmentation byte for byte), the store smoke (write →
# reopen → byte-identical read, plus the warm-start guarantee through
# the persistent cache tier), and the gateway smoke (procs=1 and
# procs=2 responses byte-identical to sequential, and a worker killed
# mid-request recovers to a correct — not typed-error — result via a
# single re-dispatch), and
# the overload smoke (a fixed-seed Zipf-skewed burst at ~1.6x fleet
# capacity: the spill+shed gateway must keep goodput positive with the
# degradation ladder demonstrably engaged, no worker crashes, and every
# completed response byte-identical to the sequential reference), and
# the daemon smoke (a real daemon process serving 8 pipelined socket
# connections: every reply byte-identical to the in-process reference,
# zero worker restarts, graceful SIGTERM drain exiting 0), and the
# corpus smoke (a small fixed-seed sampled corpus evaluated twice
# through the service: zero service errors, median F1 above the floor,
# per-family micro-F above wide floors derived from BENCH_corpus.json,
# and an identical accuracy digest both times — the corpus sampler's
# determinism contract), the stream smoke (every built-in site and
# a 200-site corpus sample must stream byte-identically to the batch
# segmentation under both methods), and the CLI smoke (for every site
# `tabseg sites` lists, `tabseg auto -s SITE` must print the same bytes
# in its direct mode, with --procs 2, and with --store DIR cold and
# then warm).
# `lint` runs tabseg_lint over lib/ bin/ bench/ and fails on any
# unsuppressed finding. Two passes share one rule catalog and one
# [@tabseg.allow] suppression syntax: the syntactic rules (TS001-TS007:
# fork-after-domain, raw-marshal, bare-mutex, blocking-io-select,
# print-in-lib, global-mutable-state, allow discipline) and the
# interprocedural taint/resource-flow rules (TS008-TS012: network
# bytes reaching Marshal outside the blessed codecs, untrusted lengths
# reaching allocation without a max_* bound check, untrusted strings
# in format/path sinks, fd leak on an exception edge, double close).
# `tabseg_lint --json` emits the same findings as a stable JSON schema
# for CI annotation; the lint-smoke bench target enforces the <10s
# full-repo runtime budget on the dataflow walk. See docs/ANALYZE.md.

.PHONY: check build lint test smoke bench bench-store bench-gateway \
	bench-overload bench-daemon bench-corpus bench-stream bench-lint clean

check: build lint test smoke

build:
	dune build @all

lint:
	dune exec bin/tabseg_lint.exe -- lib bin bench

test:
	dune runtest

smoke:
	dune exec bench/main.exe -- faults-smoke
	dune exec bench/main.exe -- serve-smoke
	dune exec bench/main.exe -- store-smoke
	dune exec bench/main.exe -- gateway-smoke
	dune exec bench/main.exe -- overload-smoke
	dune exec bench/main.exe -- daemon-smoke
	dune exec bench/main.exe -- corpus-smoke
	dune exec bench/main.exe -- stream-smoke
	dune build bin/tabseg_cli.exe
	dune exec bench/main.exe -- cli-smoke
	dune exec bench/main.exe -- lint-smoke

bench:
	dune exec bench/main.exe

# Persistent-store benchmark: cold vs warm-start latency over the 12-site
# corpus plus a compaction probe → BENCH_store.json. Runs against
# throwaway store directories under $TMPDIR.
bench-store:
	dune exec bench/main.exe -- store --json

# Multi-process gateway sweep (procs 1/2/4 × cold/warm store × cpu|io)
# → BENCH_gateway.json.
bench-gateway:
	dune exec bench/main.exe -- gateway --json

# Overload / graceful-degradation sweep: open-loop Zipf-skewed stampedes
# at rates below, near, and past fleet capacity, against each rung of
# the degradation ladder (static affinity / spill / spill+shed / full
# with per-site quotas) → BENCH_overload.json, including the
# goodput ratio of spill+shed over the static baseline at the top rate.
bench-overload:
	dune exec bench/main.exe -- overload --json

# Daemon serving benchmark: a real daemon process behind a Unix socket
# (plus one TCP cell), closed-loop connection sweep (1/8/16 pipelined
# connections) with every reply checked byte-for-byte against the
# sequential in-process reference, then the quota cell — a burst past
# the per-site admission quota driven by a naive client and by one that
# honours the typed retry-after hint, goodput compared over the same
# fixed horizon → BENCH_daemon.json.
bench-daemon:
	dune exec bench/main.exe -- daemon --json

# Corpus-scale accuracy distribution: 1000 seeded site families (schemas,
# layouts, log-uniform row counts to 10^5, nesting, contamination all
# sampled) segmented through Serve.Service and scored against generated
# ground truth → BENCH_corpus.json with P/R/F p5/p50/p95 + histograms,
# per-family breakdown, worst-k triage digests and sites/sec. The same
# seed reproduces identical accuracy numbers (the JSON carries an MD5
# digest of every per-site count to prove it). Knobs:
# TABSEG_CORPUS_SITES/MAX_PAGE/SIBLINGS. The sweep runs one service.
bench-corpus:
	dune exec bench/main.exe -- corpus --json

# Lint runtime guard: both analyzer passes (syntactic TS001-TS007 and
# interprocedural dataflow TS008-TS012) over the full repo, failing on
# any unsuppressed finding or if the walk exceeds the 10s budget →
# BENCH_lint.json with per-pass timings.
bench-lint:
	dune exec bench/main.exe -- lint-smoke --json

# Streaming benchmark: a cold 10^5-row seeded corpus site crawled
# lazily through the stream engine vs the batch path (which must crawl
# end to end before segmenting anything) → BENCH_stream.json with
# time-to-first-record and batch-total percentiles, the live-token and
# live-word high watermarks, and the byte-identity flag. Fails the
# process if streaming ever diverges from batch or TTFR p50 reaches
# 25% of the batch total. Knobs: TABSEG_STREAM_ROWS/UNITS/REPS.
bench-stream:
	dune exec bench/main.exe -- stream --json

# Only build artifacts. User store directories (*.tabstore/) hold warm
# cache state that survives restarts by design — never remove them here.
clean:
	dune clean
