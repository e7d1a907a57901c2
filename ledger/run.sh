#!/usr/bin/env bash
# Builds bstserve and the ledger benchmark from this checkout, then runs
# one workload. Run from the repository root:
#
#   bash ledger/run.sh --workload serve-durable --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build) inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
out=$build/ledger
if [[ ! -f $root/go.mod || ! -d $root/cmd/bstserve ]]; then
	echo "ledger/run.sh: $root holds no bstserve source to build" >&2
	exit 1
fi
mkdir -p "$out/tmp"
# The Go toolchain keeps caches, settings and telemetry under $HOME and the
# user config directory; point all of them into the build directory.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export HOME=$out/home XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOENV=off GOFLAGS=
# Turn Go telemetry off: in its default mode the go command starts a
# detached telemetry process that can outlive the build and this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
(cd "$root" && go build -o "$out/bstserve" ./cmd/bstserve) >&2
(cd "$root/ledger" && go build -o "$out/ledger" .) >&2
exec "$out/ledger" --bstserve "$out/bstserve" --work "$out" "$@"
