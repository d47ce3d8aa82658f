#!/usr/bin/env bash
# The command BENCHMARK.json names: build bgl-bench from source, then run it
# with the arguments given, from the root of a checkout.
#
# The build links the registry crates the workspace declares when this host's
# cargo home has them. When it does not (no network, nothing vendored), cargo
# cannot even resolve the workspace; only then is `offline/config.toml`
# applied, which patches in the stand-ins kept beside it. BGL_BENCH_DEPS tells
# the binary which it was, for the run document.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
cd "$here/../.."
build() { cargo build --release --offline --quiet -p bgl-bench "$@"; }
if build 2>/dev/null; then
    export BGL_BENCH_DEPS=registry
else
    build --config "$here/offline/config.toml"
    export BGL_BENCH_DEPS=stand-ins
fi
exec "${CARGO_TARGET_DIR:-target}/release/bgl-bench" "$@"
