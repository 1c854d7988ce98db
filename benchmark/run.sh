#!/usr/bin/env bash
# One command for the whole yardstick: check the environment, build
# offline, run.
#
#   benchmark/run.sh [--seed N]          every workload, end-to-end then traced
#   benchmark/run.sh --selfcheck         the end-to-end set twice, compared
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                        one run under the benchmark contract
#
# Results go to stdout (`workload metric value unit`), the machine stamp
# and every metric to benchmark/out/result.json, spans to
# benchmark/out/trace-<workload>.jsonl.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

die() {
    echo "benchmark/run.sh: $*" >&2
    exit 1
}

# The [profile.release] table of a manifest, comments and blanks dropped.
profile() {
    awk '/^\[/ { on = ($0 == "[profile.release]") } on && !/^#/ && NF' "$1"
}

[ -f Cargo.toml ] || die "no root Cargo.toml here: run from a checkout of the repository"
[ "$(profile Cargo.toml)" = "$(profile benchmark/Cargo.toml)" ] ||
    die "[profile.release] of benchmark/Cargo.toml differs from the root's: copy it over"
[ -z "${STRIPE_NET_FALLBACK+set}" ] ||
    die "STRIPE_NET_FALLBACK is set: the yardstick measures the batched syscall path"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/stripe-benchmark" --out benchmark/out "$@"
