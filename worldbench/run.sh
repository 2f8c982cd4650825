#!/usr/bin/env bash
# Builds the world benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#	bash worldbench/run.sh --workload battle --seed 1 --seconds 25 --trace 0
#
# Everything a run writes stays under .bench_build/ in the current
# directory: the binary, the Go build cache, the span file of a traced run
# and the world's state. The state directory gets a private tmpfs mounted
# in a mount namespace of the run's own, when the kernel allows one, so the
# world's disk is RAM-backed and nothing it writes reaches a real disk; the
# mount vanishes when the run ends. Where the namespace or the mount is
# refused, the state stays on the checkout's filesystem, which the report
# names.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$PWD/.bench_build"
state="$out/state"
mkdir -p "$state"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local
go -C "$here" build -o "$out/worldbench" .
if unshare --user --map-root-user --mount true 2>/dev/null; then
	exec unshare --user --map-root-user --mount sh -c \
		'mount -t tmpfs -o size=1g worldbench "$0" ||
			echo "worldbench: no private tmpfs, state on the checkout filesystem" >&2
		exec "$@"' \
		"$state" "$out/worldbench" --state-dir "$state" "$@"
fi
exec "$out/worldbench" --state-dir "$state" "$@"
