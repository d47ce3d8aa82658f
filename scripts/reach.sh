#!/usr/bin/env bash
# Every item names its caller (DESIGN.md §14). Lists
#   - every `pub fn|const|static` declared in the non-test part of
#     crates/*/src (bgl-bench excluded: it measures the system and is not
#     part of it) that no caller line other than a declaration of that name
#     names, and
#   - every source file other than lib.rs / mod.rs / main.rs none of whose
#     module-level `pub` items is named by a caller line of *another* file,
# and fails unless that list is exactly scripts/reach.allow.
#
# A caller line is a line that is not a comment, not part of a `use`
# declaration and not a `mod` declaration, in the non-test part of any
# crates/*/src file — bgl-bench's and bgl-figures' included — or anywhere in
# examples/ or crates/bgl-bench/tests/. The non-test part is everything
# outside the `#[cfg(test)] mod … {` … `}` blocks (both at column 0, as every
# one in this tree is; loc.sh stops at the first such block instead, which
# only differs for bgl-core's experiments.rs, whose ablations follow its test
# module).
# Unit tests, crates/*/tests/ and the root tests/ are not callers: what only
# they name is either deleted with them or listed in reach.allow with the
# suite that needs it (fixtures, fault vocabulary, inspection hooks,
# reference implementations).
#
# reach.allow: one `path:name<TAB>reason` line per kept function, one
# `path<TAB>reason` line per kept file. The script fails on an unreached item
# that is not listed, on a listed item that is no longer declared, and on a
# listed item that a caller line has since come to name.
#
# This is a word-match heuristic, not name resolution: `Sgd::new` hides
# behind every other `new`, and a method only a trait impl's `fn` line names
# counts as named. It catches the accessor nobody calls, not everything;
# types (`struct`, `enum`, `trait`) are only covered by the whole-file rule.
# find + awk only, like check_deps.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

{
    find crates -path '*/src/*' -name '*.rs' -not -path '*/offline/*' -not -path '*/target/*' | sort | sed 's/^/src /'
    find examples crates/bgl-bench/tests -name '*.rs' | sort | sed 's/^/all /'
} | awk -v allow_file=scripts/reach.allow '
    # Words of `line` into `words` (a set).
    function split_words(line, words,    n, parts, i) {
        delete words
        n = split(line, parts, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) if (parts[i] != "") words[parts[i]] = 1
    }
    function scan(kind, file,    line, in_use, in_tests, declares, base, name, rest, words, w, module_level) {
        declares = (kind == "src" && file !~ /^crates\/bgl-bench\//)
        base = file; sub(/.*\//, "", base)
        in_use = 0; in_tests = 0
        while ((getline line < file) > 0) {
            if (kind == "src" && line ~ /^#\[cfg\(test\)\]/) { in_tests = 1; continue }
            if (in_tests) { if (line == "}") in_tests = 0; continue }
            if (line ~ /^[ \t]*\/\//) continue
            if (in_use) { if (line ~ /;/) in_use = 0; continue }
            if (line ~ /^[ \t]*(pub(\([a-z]+\))? +)?use /) { if (line !~ /;/) in_use = 1; continue }
            if (line ~ /^[ \t]*(pub(\([a-z]+\))? +)?mod [a-z_0-9]+;/) continue
            split_words(line, words)
            for (w in words) {
                named[w]++
                if (!((w, file) in named_in)) { named_in[w, file] = 1; named_files[w]++ }
            }
            if (!declares || line !~ /^[ \t]*pub +/) continue
            module_level = (line ~ /^pub /)
            rest = line
            sub(/^[ \t]*pub +/, "", rest)
            if (rest ~ /^((const|unsafe|async) +)*fn +[A-Za-z_]/) {
                sub(/^((const|unsafe|async) +)*fn +/, "", rest)
            } else if (rest ~ /^(const|static) +(mut +)?[A-Za-z_][A-Za-z0-9_]* *:/) {
                sub(/^(const|static) +(mut +)?/, "", rest)
            } else if (module_level && rest ~ /^(struct|enum|trait|type|union) +[A-Za-z_]/) {
                sub(/^[a-z]+ +/, "", rest)
                match(rest, /^[A-Za-z_][A-Za-z0-9_]*/)
                file_items[file] = file_items[file] " " substr(rest, 1, RLENGTH)
                continue
            } else continue
            match(rest, /^[A-Za-z_][A-Za-z0-9_]*/)
            name = substr(rest, 1, RLENGTH)
            declared[name]++
            decl_count[file ":" name]++
            if (module_level) file_items[file] = file_items[file] " " name
        }
        close(file)
        if (declares && base != "lib.rs" && base != "mod.rs" && base != "main.rs" && file !~ /\/src\/bin\//)
            is_module_file[file] = 1
    }
    { scan($1, $2) }
    END {
        # Unreached functions: every caller line naming the word is a declaration of it.
        for (item in decl_count) {
            name = item; sub(/.*:/, "", name)
            exists[item] = 1
            if (named[name] <= declared[name]) unreached[item] = 1
        }
        # Unreached files: no module-level pub item named from another file.
        # (A file of nothing but `impl` blocks has none; its methods are
        # covered one by one above.)
        for (file in is_module_file) {
            exists[file] = 1
            n = split(file_items[file], items, " ")
            hit = (n == 0)
            for (i = 1; i <= n && !hit; i++)
                if (named_files[items[i]] - ((items[i], file) in named_in) > 0) hit = 1
            if (!hit) unreached[file] = 1
        }
        status = 0
        while ((getline line < allow_file) > 0) {
            if (line ~ /^#/ || line ~ /^[ \t]*$/) continue
            tab = index(line, "\t")
            item = tab ? substr(line, 1, tab - 1) : line
            reason = tab ? substr(line, tab + 1) : ""
            allowed[item] = 1
            if (reason ~ /^[ \t]*$/) { print "reach.allow: no reason given for " item; status = 1 }
            if (!(item in exists)) { print "reach.allow: " item " is no longer declared; drop the line"; status = 1 }
            else if (!(item in unreached)) { print "reach.allow: " item " is now named by non-test code; drop the line"; status = 1 }
        }
        for (item in unreached) if (!(item in allowed)) {
            print "unreached: " item " (named only by its own tests, or by nothing: delete it with them, or list it in scripts/reach.allow with the suite that needs it)"
            status = 1
        }
        printf "reach: %d pub fn/const/static in %d files; %d kept by scripts/reach.allow%s\n", length(decl_count), length(is_module_file), length(allowed), status ? " -- FAILED" : "" > "/dev/stderr"
        exit status
    }' | sort
