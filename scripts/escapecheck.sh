#!/usr/bin/env bash
# escapecheck.sh — diff the compiler's escape-analysis diagnostics for
# the //hh:noalloc packages against the committed baseline.
#
# hhlint checks the zero-alloc contract syntactically; this script is
# the compiler-level backstop: any new "escapes to heap" / "moved to
# heap" line in the hot-path packages fails CI until it is either fixed
# or deliberately accepted with ./scripts/escapecheck.sh -update.
set -euo pipefail
cd "$(dirname "$0")/.."

PKGS=(. ./internal/spacesaving ./internal/frequent ./internal/lossycounting
	./internal/sketch ./internal/hashing ./internal/core ./internal/arena
	./internal/coalesce)
BASELINE=scripts/escape_baseline.txt

# A fresh build cache: -gcflags=-m diagnostics are not replayed for
# cached packages, so an incremental build would silently diff nothing.
GOCACHE="$(mktemp -d)"
export GOCACHE
trap 'rm -rf "$GOCACHE"' EXIT

# Lines under an absolute path point into the toolchain (GOROOT code
# inlined into ours, e.g. hash/maphash): they name a path that differs
# per installation, so they are dropped rather than baselined.
current() {
	go build -gcflags='-m' "${PKGS[@]}" 2>&1 |
		grep -E 'escapes to heap|moved to heap' |
		grep -v '^/' |
		sed -E 's/:[0-9]+:[0-9]+:/:/' |
		sort -u
}

case "${1:-}" in
-update)
	current >"$BASELINE"
	echo "escapecheck: baseline updated ($(wc -l <"$BASELINE" | tr -d ' ') lines)"
	;;
"")
	if ! diff -u "$BASELINE" <(current); then
		echo "escapecheck: escape-analysis output drifted from $BASELINE" >&2
		echo "escapecheck: fix the new escape, or accept it with: ./scripts/escapecheck.sh -update" >&2
		exit 1
	fi
	echo "escapecheck: OK"
	;;
*)
	echo "usage: $0 [-update]" >&2
	exit 2
	;;
esac
