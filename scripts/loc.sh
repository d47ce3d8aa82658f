#!/usr/bin/env bash
# The code-size number simplicity PRs are held to: non-blank, non-`//`
# lines of every crates/*/src/**/*.rs up to the file's first `#[cfg(test)]`,
# per crate and in total. bgl-bench is excluded — it measures the system and
# is not part of it. find + awk only, like check_deps.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates -path '*/src/*' -name '*.rs' -not -path 'crates/bgl-bench/*' | sort |
    xargs awk '
        FNR == 1 { in_tests = 0; split(FILENAME, part, "/"); crate = part[2] }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[ \t]*$/ || /^[ \t]*\/\// { next }
        { lines[crate]++; total++ }
        END {
            for (c in lines) printf "%6d  %s\n", lines[c], c | "sort -k2"
            close("sort -k2")
            printf "%6d  total\n", total
        }'
