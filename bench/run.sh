#!/usr/bin/env bash
# Builds nabench into bench/.build/ and runs it in the foreground with the
# arguments given, from the root of the checkout:
#
#   bash bench/run.sh --workload soak6_passthrough --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under bench/.build/ and
# bench/out/. The script fails if any process it started outlives it.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$here/.build"
mkdir -p "$build/tmp"

# Every process started from here on carries the tag in its environment,
# which is how the last step finds the ones still running.
export NABENCH_RUN_TAG="nabench-$$-$RANDOM"

export GOTELEMETRY=off GOTOOLCHAIN=local GOENV=off GOFLAGS=
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/nabench" ./cmd/nabench)

cd "$here/.."
rc=0
"$build/nabench" "$@" || rc=$?

left=$(env -u NABENCH_RUN_TAG grep -lsa "NABENCH_RUN_TAG=$NABENCH_RUN_TAG" /proc/[0-9]*/environ || true)
if [ -n "$left" ]; then
  echo "nabench: processes left running: $left" >&2
  exit 5
fi
exit "$rc"
