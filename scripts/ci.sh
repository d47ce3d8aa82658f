#!/usr/bin/env bash
# Tier-1 gate: build, tests, lints. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Manifests first: a dependency no .rs file names fails here, before
# anything is compiled.
scripts/check_deps.sh
# The code-size number simplicity PRs are held to, in every CI log.
scripts/loc.sh
# Every item names its caller: a `pub fn` or a whole source file that only
# its own tests reach fails here unless scripts/reach.allow says which suite
# needs it (DESIGN.md §14).
scripts/reach.sh
# What that rule retired stays retired: samplers no figure ran, the snapshot
# format no binary saved or loaded, the tuner and optimizer every run
# hard-codes around, the partitioner no system selects.
if grep -rnE 'RandomWalkSampler|LayerWiseSampler|save_graph|load_graph|BGLGRPH|choose_num_sequences|struct Sgd|HashPartitioner' crates tests examples; then
    echo "retired item is back: name the figure, workload or suite that calls it (scripts/reach.sh)" >&2
    exit 1
fi
# Ledgers reach the registry through bgl_obs::Mirror; a hand-written
# `now - self.last_*` delta mirror outside bgl-obs fails here. (`if`, not a
# bare `! grep`: `set -e` ignores a status inverted with `!`.)
if grep -rnE 'saturating_sub\(self\.last' crates --include='*.rs' | grep -v '^crates/bgl-obs/'; then
    echo "hand-written delta mirror: publish through bgl_obs::Mirror instead" >&2
    exit 1
fi
# The miss path has one implementation per layer (DESIGN.md §11): a second
# cache front-end or buffer-pool replacer beside the survivor fails here.
if grep -rnE 'MutexShardedCache|DiskPolicyKind|ClockReplacer|LruReplacer' crates tests examples; then
    echo "retired miss-path alternate: extend QueueShardedCache / the SIEVE pool instead" >&2
    exit 1
fi
# StoreCluster::fan_out owns the only modelled-parallel `elapsed.max(t)` fold;
# a second one means a request loop was hand-rolled beside it.
if grep -nE '\.max\(t\)' crates/bgl-store/src/cluster.rs crates/bgl-store/src/migrate.rs | tail -n +2 | grep .; then
    echo "second per-target elapsed fold: issue the requests through StoreCluster::fan_out" >&2
    exit 1
fi
# A stored feature row has one in-memory representation, bgl_graph::half's
# RowBuf, from the disk page to the cache slot (DESIGN.md §11): a layer that
# widens at its own boundary, or keeps a private copy of the buffer type,
# has re-grown a conversion the miss path paid per row per batch.
if grep -rn 'decode_f16_rows' crates tests examples; then
    echo "decode_f16_rows is retired: adopt the f16 payload as a FeatureBlock segment" >&2
    exit 1
fi
if grep -nE 'f16_bits_to_f32|decode_row_f16' crates/bgl-store/src/{pager,wire,cluster}.rs; then
    echo "a page decode, frame decode or fetch widens: hold the stored bits in a RowBuf" >&2
    exit 1
fi
if grep -rn 'SlotBuf' crates/bgl-cache/src; then
    echo "private slot buffer type: cache slots are a bgl_graph::half::RowBuf" >&2
    exit 1
fi
# Two hash functions were 12.7 of a train-remote batch's 26.8 ms. The page
# checksum on the buffer-pool miss path is the word-parallel page_sum64 (the
# byte-serial FNV-1a stays on what is verified once, at open), and Floyd's
# picks in the sampler sit in a Vec, not a per-node SipHash set.
if grep -n 'fnv1a_64(&image' crates/bgl-store/src/pager.rs; then
    echo "byte-serial checksum back on the per-miss path: pages are summed with page_sum64" >&2
    exit 1
fi
if grep -n 'HashSet' crates/bgl-sampler/src/neighbor.rs; then
    echo "hashed set in the sampler: pick keeps at most fanout indices in a Vec" >&2
    exit 1
fi
# A train step computes what the loss needs and writes it into the model's
# own workspace (DESIGN.md §15): layer 0 borrows the caller's features, and
# the gather writes the GEMM operand in place. A cloned input or a
# top_rows / hconcat / hsplit matrix is a per-batch copy coming back.
if grep -n 'input\.clone()' crates/bgl-gnn/src/{sage,gcn}.rs ||
    grep -rnE 'hconcat|hsplit|top_rows' crates/bgl-gnn/src; then
    echo "the step re-grew a per-batch copy: write into the workspace" >&2
    exit 1
fi
# The serve driver is work-conserving (DESIGN.md §10): it takes what is
# queued and never waits for more. Batches form behind a running pass.
if grep -nE 'max_delay|wait_timeout' crates/bgl-serve/src/frontend.rs; then
    echo "a hold timer on an idle engine is back: batches form while a pass runs" >&2
    exit 1
fi
# A buffer-pool miss is one positional read into the frame it evicts, found
# through a flat page table (DESIGN.md §11).
if grep -n 'SeekFrom' crates/bgl-store/src/pager.rs ||
    grep -n 'HashMap' crates/bgl-store/src/bufpool.rs; then
    echo "per-miss seek or per-row SipHash back on the page path" >&2
    exit 1
fi
# Bytes from a socket or a disk are read through one cursor (DESIGN.md §12):
# a decoder that compares a length to what is left on its own, or pulls
# fields out of a slice by hand, has re-grown a bounds check beside the one
# in bgl_graph::le::Reader::take.
if grep -nE 'remaining\(\) *(<|!=|>)' crates/bgl-store/src/wire.rs crates/bgl-net/src/{proto,query}.rs ||
    awk 'FNR == 1 { tests = 0 } /#\[cfg\(test\)\]/ { tests = 1 }
         !tests && /from_le_bytes/ { print FILENAME ":" FNR ":" $0; hit = 1 } END { exit !hit }' \
        crates/bgl-store/src/wal.rs crates/bgl-exec/src/checkpoint.rs; then
    echo "hand-rolled length check or field read in a decoder: read through bgl_graph::le::Reader" >&2
    exit 1
fi

cargo build --release
cargo test -q
# Tests assert; they do not write results. A test that rewrites a tracked
# file under results/ fails the gate here.
git diff --exit-code -- results/
cargo clippy --all-targets -- -D warnings

# Suites that spawn real threads, sockets or WAL reopen cycles run once more
# with the host's full parallelism (`cargo test` above may run under a capped
# RUST_TEST_THREADS; the interleaving inside one test is what matters), and
# where marked `release` again under --release, where timing-sensitive
# asserts and shutdown/checkpoint races meet optimized stage times.
# Columns: builds, then the `cargo test` arguments. One comment per suite.
while read -r -u 3 builds args; do
    [[ -z $builds || $builds == \#* ]] && continue
    for build in ${builds//,/ }; do
        flag=
        [[ $build == release ]] && flag=--release
        # shellcheck disable=SC2086  # $flag and $args are word lists
        env -u RUST_TEST_THREADS cargo test -q $flag $args
    done
done 3<<'EOF'
# threaded executor: differential, shutdown, simulator band, serial speedup
debug,release  -p bgl --test exec_runtime
# store plane over real sockets, frame and query proptests
debug          -p bgl-net
# training epoch over loopback TCP, including the mid-epoch server kill
debug          -p bgl --test net_transport
# connection runtime conformance (both handlers, hostile Control/Query/Req frames), live serving and mid-load store kill
debug,release  -p bgl --test conn_runtime --test serve
# checkpoint/resume chaos: pipelines killed at seeded batches and resumed
debug,release  -p bgl --test ckpt_recovery
# blocked matmul: serial/parallel bitwise equivalence (fast-math hazards need optimized code)
release        -p bgl-tensor --test matmul_equiv
# train step against the allocate-everything reference, bitwise: in-place kernels are what the optimizer rewrites
release        -p bgl-gnn --test step_equiv
# disk tier and WAL: torn crashes behind in-process and TCP transports, bitwise recovery
debug,release  -p bgl --test disk_recovery
# streaming ingestion: churn through the write-all broadcast path, TCP parity, crash replay
debug,release  -p bgl-ingest
# owner migration: kills at every (phase, victim) cell, WAL replay, bitwise post-migration epoch
debug,release  -p bgl --test migrate
# registry counter names: every ledger attach site against the pinned literal list
debug          -p bgl --test metric_names
# pinned literals: cluster request order (events, per-server counts, ledger, clock) and every codec's golden bytes
debug          -p bgl --test request_order --test golden_corpus
# induce against its HashMap + GraphBuilder reference: the branch-free filter and in-place row sort are what the optimizer rewrites
release        -p bgl-graph --test proptests
# feature miss path, tier × wire × cache precision: every assembled position against the quantization its pairing implies
debug,release  -p bgl --test precision_path
EOF

# The one harness that times the system: every workload once at smoke scale,
# with its correctness checks (ledgers, reconciliation, no lost row) armed.
bash crates/bgl-bench/run.sh --all --smoke --out "$(mktemp -d)"
