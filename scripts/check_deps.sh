#!/usr/bin/env bash
# Fails when a workspace member declares a dependency that none of its .rs
# files name. Plain grep, so it needs no tool the toolchain doesn't ship and
# no network.
#   [dependencies]      searched in the member's own directory plus the
#                       out-of-tree targets its manifest points at
#                       (`path = "../../tests/…"`).
#   [dev-dependencies]  searched only where test code lives: the member's
#                       tests/, benches/, examples/, the directories of its
#                       out-of-tree targets, and each src file from its first
#                       `#[cfg(test)]` on — so a leftover bench-only or
#                       proptest-only crate fails here, not just a warning
#                       nobody reads.
set -euo pipefail
cd "$(dirname "$0")/.."

# Keys of one manifest table (stops at the next header).
table_keys() {
    awk -v want="[$2]" '/^\[/{on = ($0 == want)} on && /^[A-Za-z0-9_-]+[ \t]*[=.]/{sub(/[ \t]*[=.].*/, ""); print}' "$1"
}

status=0
for manifest in crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    # Targets that live outside the member's directory.
    mapfile -t extra < <(sed -n 's/^path *= *"\(\.\.[^"]*\.rs\)"/\1/p' "$manifest" | sed "s|^|$dir/|")
    for dep in $(table_keys "$manifest" dependencies); do
        ident=${dep//-/_}
        if ! grep -rqE --include='*.rs' --exclude-dir=target --exclude-dir=offline \
            "(^|[^A-Za-z0-9_])${ident}(::|;| as )" "$dir" "${extra[@]}"; then
            echo "unused dependency: $dir declares '$dep' but no .rs file of that crate names it" >&2
            status=1
        fi
    done

    dev_deps=$(table_keys "$manifest" dev-dependencies)
    [[ -z $dev_deps ]] && continue
    mapfile -t test_dirs < <(
        for d in "$dir/tests" "$dir/benches" "$dir/examples"; do [[ -d $d ]] && echo "$d"; done
        for f in "${extra[@]}"; do dirname "$f"; done | sort -u
    )
    test_code=$(
        [[ ${#test_dirs[@]} -gt 0 ]] && find "${test_dirs[@]}" -name '*.rs' -exec cat {} +
        find "$dir/src" -name '*.rs' -exec awk 'FNR == 1 {t = 0} /#\[cfg\(test\)\]/ {t = 1} t' {} +
    )
    for dep in $dev_deps; do
        ident=${dep//-/_}
        if ! grep -qE "(^|[^A-Za-z0-9_])${ident}(::|;| as )" <<<"$test_code"; then
            echo "unused dev-dependency: $dir declares '$dep' but none of its test code names it" >&2
            status=1
        fi
    done
done
exit $status
