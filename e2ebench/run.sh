#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it
# from the checkout root, passing every argument through:
#
#   bash e2ebench/run.sh --workload ocp-detect-wait64 --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, module and config
# directories) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "e2ebench: $root is not a repository checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
commit=unknown
if [ -d .git ] && c="$(git rev-parse HEAD 2>/dev/null)"; then
	commit="$c"
fi
(cd e2ebench && go build -ldflags "-X main.commit=$commit" -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
