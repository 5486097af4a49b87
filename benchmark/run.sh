#!/usr/bin/env bash
# Builds the benchmark from source on first use, then runs it with the
# arguments given. Everything it writes stays under .bench_build in the
# current directory, which must be the root of a checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
bin="$out/bolt-benchmark"
mkdir -p "$out/home" "$out/tmp" "$out/out"

# Rebuild when the binary is missing or any source of the repository is
# newer than it.
if [[ ! -x "$bin" ]] || [[ -n "$(find "$here/.." -path "$out" -prune -o \( -name '*.go' -o -name 'go.mod' -o -name 'golden.json' \) -newer "$bin" -print -quit)" ]]; then
	(cd "$here" && HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod \
		GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0 go build -o "$bin" .) >&2
fi
exec "$bin" -out "$out/out" "$@"
