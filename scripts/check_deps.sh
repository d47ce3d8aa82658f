#!/usr/bin/env bash
# Fails when a workspace member declares a [dependencies] entry that none
# of its .rs files name. Plain grep over the member's own directory plus
# the out-of-tree targets its manifest points at (`path = "../../tests/…"`),
# so it needs no tool the toolchain doesn't ship and no network.
# Dev-dependencies are not checked: `cargo build --all-targets` already
# proves those, and an unused one never reaches a release build.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for manifest in crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    # Keys of the [dependencies] table only (stops at the next header).
    deps=$(awk '/^\[/{in_deps = ($0 == "[dependencies]")} in_deps && /^[A-Za-z0-9_-]+[ \t]*[=.]/{sub(/[ \t]*[=.].*/, ""); print}' "$manifest")
    # Targets that live outside the member's directory.
    mapfile -t extra < <(sed -n 's/^path *= *"\(\.\.[^"]*\.rs\)"/\1/p' "$manifest" | sed "s|^|$dir/|")
    for dep in $deps; do
        ident=${dep//-/_}
        if ! grep -rqE --include='*.rs' --exclude-dir=target --exclude-dir=offline \
            "(^|[^A-Za-z0-9_])${ident}(::|;| as )" "$dir" "${extra[@]}"; then
            echo "unused dependency: $dir declares '$dep' but no .rs file of that crate names it" >&2
            status=1
        fi
    done
done
exit $status
