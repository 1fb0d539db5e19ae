#!/usr/bin/env bash
# Builds the benchmark from source (release, offline) and runs it.
#
#   benchmark/run.sh                                  the whole suite: every workload,
#                                                     timed pass then traced pass, each
#                                                     in a process of its own
#   benchmark/run.sh --workload join-dense            one workload, timed pass
#   benchmark/run.sh --workload join-dense --trace 1  one workload, traced pass
#   benchmark/run.sh --seed 977                       another seed (default 4242)
#   benchmark/run.sh --check-repeat                   the suite twice; fails unless exact
#                                                     counts repeat and end-to-end metrics
#                                                     agree within their bounds
#
# The driver's form is
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# whose last line of standard output is one JSON object. Run it from
# the repo root (or anywhere: paths below are anchored on this file).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# These hooks silently change the engine's Default configs; the binary
# refuses to start with either set.
unset TKIJ_SPILL_THRESHOLD TKIJ_SWEEP_SCAN

# One pinned build directory, unless the caller already chose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# Everything the run writes stays under benchmark/out: traces, and the
# spill segments of the serialized shuffle (std::env::temp_dir()).
mkdir -p "$here/out/tmp"
export TMPDIR="$here/out/tmp"

# glibc's per-thread malloc cache makes the engine's 2-thread task pool
# bimodal on this host (the same query takes 250 ms or 750 ms from one
# repetition to the next; see README.md, "Pinned environment"). It is
# switched off for every workload so that timings follow the code.
export GLIBC_TUNABLES="${GLIBC_TUNABLES:+$GLIBC_TUNABLES:}glibc.malloc.tcache_count=0"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/tkij-benchmark" --out "$here/out" "$@"
