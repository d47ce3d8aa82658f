#!/usr/bin/env bash
# The code-size number simplicity PRs are held to: non-blank, non-`//`
# lines of every crates/*/src/**/*.rs up to the file's first `#[cfg(test)]`,
# per crate and in total. bgl-bench is excluded — it measures the system and
# is not part of it. find + awk only, like check_deps.sh.
#
# Counting stops at the first `#[cfg(test)]`, so test modules must come last:
# a file with anything but another `#[cfg(test)]` item after a test module's
# closing brace fails the script, instead of having that code silently left
# out of the number (bgl-core's experiments.rs hid 170 lines that way).
set -euo pipefail
cd "$(dirname "$0")/.."

find crates -path '*/src/*' -name '*.rs' -not -path 'crates/bgl-bench/*' | sort |
    xargs awk '
        FNR == 1 { in_tests = closed = 0; split(FILENAME, part, "/"); crate = part[2] }
        /#\[cfg\(test\)\]/ { in_tests = 1; closed = 0 }
        /^[ \t]*$/ || /^[ \t]*\/\// { next }
        in_tests && /^}/ { closed = 1; next }
        closed {
            printf "%s:%d: code after a test module; move the tests to the end of the file\n",
                FILENAME, FNR > "/dev/stderr"
            bad = 1
            in_tests = closed = 0
        }
        in_tests { next }
        { lines[crate]++; total++ }
        END {
            if (bad) exit 1
            for (c in lines) printf "%6d  %s\n", lines[c], c | "sort -k2"
            close("sort -k2")
            printf "%6d  total\n", total
        }'
