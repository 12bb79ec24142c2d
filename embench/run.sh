#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs one workload:
#
#   bash embench/run.sh --workload fleet-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build at the checkout root. The build needs the
# repository's own module one directory up, so outside a full checkout it
# fails and no result is printed.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/embench" .)

# The commit when run from a git clone, else a hash of the Go sources.
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null) ||
	commit="src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"

cd "$root"
exec "$out/embench" "$@" --commit "$commit"
