#!/usr/bin/env bash
# Non-test source lines, per crate and in the two subtotals the ROADMAP
# tracks: the size count for changes that delete code.
#
# A file counts up to the `#[cfg(test)]` line that opens its
# `mod tests` block, or in full when it has none; a `#[cfg(test)]` on
# any other item (a test-only method, say) does not end the count.
# Blank and comment lines count, as they do in the file. Crates are
# `crates/*/src`, plus the root package's `src/`.
#
# Usage: bash scripts/loc.sh   (report only; CI runs it so it cannot rot)
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test lines of every .rs file under the given paths, summed
# (POSIX awk: a file's count is added when the next file starts, or at
# the end; the second awk adds up the batches xargs may split into).
count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { total += kept; kept = 0; done = 0; cfg = 0 }
        done { next }
        cfg && /^[[:space:]]*mod[[:space:]]+tests[[:space:]]*[{]/ { done = 1; next }
        { kept = FNR; cfg = 0 }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { cfg = 1; kept = FNR - 1 }
        END { print total + kept }
    ' | awk '{ sum += $1 } END { print sum + 0 }'
}

printf '%-12s %7s\n' crate lines
for dir in crates/*/src; do
    crate=${dir#crates/}
    printf '%-12s %7d\n' "${crate%/src}" "$(count "$dir")"
done
printf '%-12s %7d\n' "(root) src" "$(count src)"
echo
printf '%-52s %7d\n' "engine + serve + the binary (src/bin/intext-serve.rs)" \
    "$(count crates/engine/src crates/serve/src src/bin/intext-serve.rs)"
printf '%-52s %7d\n' "crates/{numeric,circuits,lineage,core,query,engine}" \
    "$(count crates/numeric/src crates/circuits/src crates/lineage/src \
        crates/core/src crates/query/src crates/engine/src)"
