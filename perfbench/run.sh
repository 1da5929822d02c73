#!/bin/sh
# Build the benchmark from this checkout's sources and run one workload:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build output, generated inputs, .xsum
# files, span dumps and temporary files all stay under .bench_build/.
set -eu
build=.bench_build
mkdir -p "$build/tmp"
TMPDIR="$PWD/$build/tmp"
DUNE_CACHE=disabled
export TMPDIR DUNE_CACHE
dune build --root . --build-dir "$PWD/$build/dune" --profile release \
  ./perfbench/bin/perfbench.exe 1>&2
# The checkout may not be a git repository; never look above it.
PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" \
  git rev-parse HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT
exec "$build/dune/default/perfbench/bin/perfbench.exe" --workdir "$build/perfbench" "$@"
