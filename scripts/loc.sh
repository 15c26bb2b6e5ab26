#!/bin/sh
# Non-test lines of code per workspace crate: the non-blank lines of
# crates/<crate>/src/**/*.rs, leaving out files named tests.rs and every
# `#[cfg(test)] mod tests`, inline (`{ ... }`) or declared (`;`). Prints
# one line per crate, then the workspace total.
#
#   scripts/loc.sh [repo root]
set -eu
root=${1:-$(dirname "$0")/..}
total=0
for dir in "$root"/crates/*/; do
    [ -d "$dir/src" ] || continue
    crate=$(basename "$dir")
    n=$(find "$dir/src" -name '*.rs' ! -name tests.rs -exec awk '
        FNR == 1 { held = 0; skip = 0 }
        skip {
            # Braces in string and character literals do not nest.
            line = $0
            gsub(/"([^"\\]|\\.)*"/, "", line)
            gsub(/'\''([^'\''\\]|\\.)'\''/, "", line)
            depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
            if (depth <= 0) skip = 0
            next
        }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { held = 1; next }
        held && /^[ \t]*mod tests[ \t]*;/ { held = 0; next }
        held && /^[ \t]*mod tests[ \t]*\{/ { held = 0; skip = 1; depth = 1; next }
        held { held = 0; count++ }
        NF { count++ }
        END { print count + 0 }
    ' {} + | awk '{ s += $1 } END { print s + 0 }')
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' workspace "$total"
