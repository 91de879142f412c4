#!/usr/bin/env bash
# Counts the non-blank lines of the workspace's tracked Rust sources,
# split into non-test and test lines.
#
#   scripts/loc.sh [REV]
#
# Without REV it counts the working tree's tracked `.rs` files; with a
# git revision (a commit, a tag, `HEAD~1`) it counts that revision's.
# A line is test when its file lies under a `tests/` or `benches/`
# directory, or when it belongs to an item marked `#[cfg(test)]` (the
# attribute line through the item's closing brace, or its `;`).
# Everything else that is not blank is non-test. Prints
#
#   non-test <n>
#   test <n>
set -euo pipefail

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
rev="${1:-}"

if [[ -n "$rev" ]]; then
    files=$(git ls-tree -r --name-only "$rev" | grep '\.rs$')
    show() { git show "$rev:$1"; }
else
    files=$(git ls-files -- '*.rs')
    show() { cat "$1"; }
fi

for f in $files; do
    printf '\001%s\n' "$f"
    show "$f"
done | awk '
    # A \001 line starts the next file.
    /^\001/ {
        path = substr($0, 2)
        test_file = (path ~ /(^|\/)(tests|benches)\//)
        pending = 0; depth = 0
        next
    }
    /^[ \t]*$/ { next }
    test_file { test++; next }
    {
        line = $0
        if (!pending && depth == 0 && line ~ /^[ \t]*#\[cfg\(test\)\]/) {
            pending = 1
            sub(/^[ \t]*#\[cfg\(test\)\][ \t]*/, "", line)
        }
        if (!pending && depth == 0) { nontest++; next }
        test++
        # Braces in comments and char literals do not open or close.
        sub(/^[ \t]*\/\/.*/, "", line)
        gsub(/'\''[{}]'\''/, "", line)
        opens = gsub(/{/, "{", line)
        closes = gsub(/}/, "}", line)
        if (pending) {
            if (opens > 0) {
                pending = 0
                depth = opens - closes
                if (depth < 0) depth = 0
            } else if (line ~ /;[ \t]*$/) {
                pending = 0
            }
        } else {
            depth += opens - closes
            if (depth < 0) depth = 0
        }
    }
    END {
        printf "non-test %d\ntest %d\n", nontest, test
    }
'
