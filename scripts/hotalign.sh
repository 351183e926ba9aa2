#!/bin/sh
# Print where the linker placed the cycle loop's hot functions.
#
# Usage:
#   scripts/hotalign.sh            # builds ./cmd/dmdpsim into a temp dir
#   scripts/hotalign.sh BINARY     # any binary that links internal/core
#
# One line per function: the symbol, its address and the address modulo
# 64 (its offset within a host cache line). A change that only moves these
# offsets can shift `detail` wall time by several percent, so a benchmark
# report that compares two binaries should list both binaries' offsets.
# Exits non-zero when a function is missing (renamed, or inlined away).
set -eu

bin="${1:-}"
if [ -z "$bin" ]; then
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	bin="$tmp/dmdpsim"
	(cd "$(dirname "$0")/.." && go build -o "$bin" ./cmd/dmdpsim)
fi

syms=$(go tool nm "$bin")
missing=0
for f in step issue rename renameOne retire dispatchReady; do
	sym="dmdp/internal/core.(*Core).$f"
	addr=$(printf '%s\n' "$syms" | awk -v s="$sym" '$3 == s && ($2 == "T" || $2 == "t") { print $1; exit }')
	if [ -z "$addr" ]; then
		echo "hotalign: $sym not found in $bin" >&2
		missing=1
		continue
	fi
	printf '%-44s 0x%s  mod64 %2d\n' "$sym" "$addr" $((0x$addr % 64))
done
exit "$missing"
