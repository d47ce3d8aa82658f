#!/usr/bin/env bash
# Tier-1 gate: build, tests, lints. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Manifests first: a dependency no .rs file names fails here, before
# anything is compiled.
scripts/check_deps.sh

cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings

# Observability layer: a disabled registry must stay a no-op on the hot
# path — run the criterion overhead bench in test mode (one iteration per
# case, so this is a smoke gate, not a timing gate). The chrome-trace
# exporter's JSON validity is asserted by the bgl-obs test suite
# (tests/trace_roundtrip.rs, a serde_json round-trip) under `cargo test`.
cargo build --release -p bgl-obs
cargo bench -p bgl-obs --bench metrics_overhead -- --test

# Threaded pipeline executor: the differential and shutdown tests exercise
# real thread interleavings, so give them the host's full parallelism
# (`cargo test` above may run under a capped RUST_TEST_THREADS in some CI
# environments; the interleaving inside one test is what matters, so an
# explicit uncapped pass keeps the coverage honest). Then once more under
# --release, where the timing-sensitive asserts (simulator band, speedup
# over the serial baseline) are armed with real optimized stage times.
# Proptest targets stay excluded from this gate, as elsewhere.
env -u RUST_TEST_THREADS cargo test -q -p bgl --test exec_runtime
env -u RUST_TEST_THREADS cargo test -q --release -p bgl --test exec_runtime

# Connection runtime: one listener and one dialer carry both planes, so
# their socket suites run here once, uncapped (real sockets, real server
# threads). bgl-net's suites cover the store plane and the frame
# proptests; conn_runtime is the runtime's conformance suite instantiated
# for both handlers; net_transport drives a training epoch over loopback
# TCP including the mid-epoch kill; serve runs live front-end drivers,
# query sockets and a mid-load store kill. conn_runtime and serve run once
# more under --release, where batching windows and the shutdown drain race
# a much faster inference pass. The loopback bench (--test mode) and the
# figures --serve smoke run (ledger, knee and percentile cross-check
# asserts built into the panel) gate the round-trip and load-generator
# paths end to end.
env -u RUST_TEST_THREADS cargo test -q -p bgl-net
env -u RUST_TEST_THREADS cargo test -q -p bgl --test conn_runtime --test net_transport --test serve
env -u RUST_TEST_THREADS cargo test -q --release -p bgl --test conn_runtime --test serve
cargo bench -p bgl-net --bench loopback -- --test
cargo run --release -p bench --bin figures -- --serve --small --out "$(mktemp -d)"

# Checkpoint/resume: the crash-recovery chaos suite spawns full pipelines,
# kills them at seeded batches and resumes — real thread interleavings
# again, so uncapped, and once under --release where the checkpoint writer
# races a much faster hot path. The checkpoint codec/write bench runs in
# --test mode as a smoke gate on the encode/fsync path.
env -u RUST_TEST_THREADS cargo test -q -p bgl --test ckpt_recovery
env -u RUST_TEST_THREADS cargo test -q --release -p bgl --test ckpt_recovery
cargo bench -p bgl-exec --bench checkpoint -- --test

# Blocked matmul kernels: the serial/parallel bitwise-equivalence suite
# runs once more under --release (the fast-math hazards it guards against
# only arise in optimized builds) with the thread-count sweep uncapped.
# The kernel before/after bench runs in --test mode as a smoke gate on
# the naive-vs-blocked measurement path (a full run, which writes
# results/BENCH_kernels.json, is manual).
env -u RUST_TEST_THREADS cargo test -q --release -p bgl-tensor --test matmul_equiv
cargo bench -p bench --bench kernels -- --test

# Durable disk tier: the disk/WAL chaos suite crashes shadow-filed tiers
# at seeded torn points behind both the in-process and TCP transports and
# proves recovery bitwise-faithful — real server threads again, so
# uncapped, and once under --release where the epoch replay that checks
# bitwise identity runs at full speed. The page/WAL microbench runs in
# --test mode as a smoke gate on the encode/checksum/fsync path.
env -u RUST_TEST_THREADS cargo test -q -p bgl --test disk_recovery
env -u RUST_TEST_THREADS cargo test -q --release -p bgl --test disk_recovery
cargo bench -p bgl-store --bench disk -- --test

# Streaming ingestion: the churn suites drive live mutation through the
# store's write-all broadcast path — the TCP parity test opens real
# sockets and the crash-replay test reopens WALs — so they run uncapped,
# and once under --release where the churn streams and the bitwise
# epoch comparison run at full speed. The figures --churn smoke run
# sweeps churn rate × re-merge period at test scale with the pinned
# post-churn quality bands (edge-cut/balance vs a from-scratch
# repartition, cache hit ratio under coherent invalidation) armed.
env -u RUST_TEST_THREADS cargo test -q -p bgl-ingest
env -u RUST_TEST_THREADS cargo test -q --release -p bgl-ingest
cargo run --release -p bench --bin figures -- --churn --small --out "$(mktemp -d)"

# Live owner migration: the chaos suite kills the source, the destination
# and bystanders at every protocol phase — in-process and over real TCP
# under r=2 — then proves recovery to one agreed owner per node, WAL
# replay of half-done migrations, and a post-migration epoch bitwise
# identical to a never-migrated cluster. Real sockets and threaded epochs,
# so uncapped, and once under --release where the epoch comparisons run at
# full speed. The figures --migrate smoke run sweeps the drain budget at
# test scale with the zero-lost/zero-dup and physical-tracks-logical
# edge-cut bands armed.
env -u RUST_TEST_THREADS cargo test -q -p bgl --test migrate
env -u RUST_TEST_THREADS cargo test -q --release -p bgl --test migrate
cargo run --release -p bench --bin figures -- --migrate --small --out "$(mktemp -d)"
