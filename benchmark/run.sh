#!/usr/bin/env bash
# The benchmark's one command. Builds the bench binary (release, offline,
# against the repo's own crates and shims only) and hands it the arguments:
#
#   benchmark/run.sh                      every workload, tracing off: prints every
#                                         metric with its unit, checks outputs,
#                                         writes benchmark/out/result.json
#   benchmark/run.sh trace                the traced run: per-layer metrics,
#                                         benchmark/out/layers.json and trace-<workload>.json
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh repin                rewrite benchmark/expected/, print the diff
#   benchmark/run.sh declare              print BENCHMARK.json as the code declares it
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1    one run
#
# `run.sh set` and `run.sh trace` take --seed N (default 7); `set` also --out FILE.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/sofb-benchmark" "$@"
