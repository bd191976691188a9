#!/usr/bin/env bash
# Builds hackbench from source and runs it.
#
#   bench/hackbench/run.sh [--workload NAME] [--seed N] [--seconds S]
#                          [--trace 0|1|PATH] [--smoke]
#
# Options also accept the --name=value form. Without --workload every
# workload runs, each in its own process. Run from anywhere; the build and
# the Chrome traces go to build/ next to this script (ignored by git).
# Exits non-zero if the build fails or any run fails a check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$here/build"

mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"  # compiler temporaries stay in the checkout
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" --target hackbench -j "$(nproc)"; } \
       >"$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  echo "hackbench: build failed (log: $build/build.log)" >&2
  exit 1
fi

export HACK_NUM_THREADS="$(nproc)"
HACKBENCH_COMMIT=none
if [[ -e "$root/.git" ]]; then
  HACKBENCH_COMMIT="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null ||
                      echo none)"
fi
HACKBENCH_SRC_DIGEST="$(cd "$root" && find src -type f -print0 | sort -z |
                        xargs -0 sha256sum | sha256sum | cut -c1-16)"
export HACKBENCH_COMMIT HACKBENCH_SRC_DIGEST

workload=""
for ((i = 1; i <= $#; i++)); do
  case "${!i}" in
    --workload=*) workload="${!i#--workload=}" ;;
    --workload) j=$((i + 1)); workload="${!j:-}" ;;
  esac
done

if [[ -n "$workload" ]]; then
  exec "$build/hackbench" --trace-dir "$build" "$@"
fi
status=0
for w in $("$build/hackbench" --list); do
  "$build/hackbench" --trace-dir "$build" --workload "$w" "$@" || status=1
done
exit "$status"
