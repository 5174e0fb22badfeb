#!/usr/bin/env bash
# The repo's benchmark, one command.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--smoke]
#       builds --release, runs each workload in a fresh child process
#       (plain run, then traced run), checks outputs, prints every metric
#       as `name value unit` and writes benchmark/out/results.json and
#       benchmark/out/trace-<workload>.json.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run (this is the `command` of BENCHMARK.json); the last line
#       of stdout is the result object.
#   benchmark/run.sh compare A.json B.json
#       applies each metric's bound to two results.json files.
#
# Exits non-zero when an op failed its oracle, a metric regressed, or the
# build failed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/spike-benchmark"
case " $* " in
    *" compare "*) exec "$bin" "$@" ;;
    *" --trace "*) exec "$bin" "$@" --out "$here/out" ;;
    *) exec "$bin" all "$@" --out "$here/out" ;;
esac
