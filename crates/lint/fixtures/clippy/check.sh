#!/usr/bin/env bash
# Clippy's regression test for the workspace invariants (DESIGN.md §10).
# Every module of this crate breaks one rule, so clippy under the root
# `clippy.toml` must fail and name every lint listed below.
#
#   bash crates/lint/fixtures/clippy/check.sh
set -u
dir=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$dir/../../../.." && pwd)
log=$(mktemp)
trap 'rm -f "$log"' EXIT

if cargo clippy --quiet --manifest-path "$dir/Cargo.toml" \
    --target-dir "$root/target/clippy-fixtures" -- -D warnings >"$log" 2>&1; then
    cat "$log"
    echo "check.sh: clippy accepted the known-bad fixtures" >&2
    exit 1
fi

status=0
for lint in disallowed_methods disallowed_types unwrap_used expect_used panic \
    unreachable todo unimplemented wildcard_enum_match_arm; do
    if grep -q "index.html#${lint}\$" "$log"; then
        echo "rejected: clippy::${lint}"
    else
        echo "check.sh: clippy::${lint} did not fire" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] || cat "$log"
exit "$status"
