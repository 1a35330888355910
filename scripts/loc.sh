#!/usr/bin/env bash
# Non-test size of the workspace: non-blank lines (comments included) under
# `crates/*/src`, leaving out every `#[cfg(test)]` item. An item runs from
# its attribute to the `;` that ends it or the `}` that closes its first
# `{`, braces counted as they appear. Prints one line per crate, then the
# total. Run from anywhere inside a checkout: `bash scripts/loc.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src; do
    crate=${dir#crates/}
    crate=${crate%/src}
    n=$(find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { skip = 0; depth = 0; opened = 0 }
        skip == 0 && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0 }
        skip == 1 {
            line = $0
            sub(/^[[:space:]]*#\[cfg\(test\)\]/, "", line)
            opens = gsub(/\{/, "{", line)
            closes = gsub(/\}/, "}", line)
            depth += opens - closes
            if (opens > 0) opened = 1
            if ((opened && depth <= 0) || (!opened && line ~ /;[[:space:]]*$/)) skip = 0
            next
        }
        /[^[:space:]]/ { n++ }
        END { print n + 0 }
    ')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
