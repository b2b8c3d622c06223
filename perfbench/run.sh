#!/usr/bin/env bash
# Builds the sigserve/sigrouter daemons and the benchmark driver from this
# checkout (release profile), then runs one measurement:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default: target/); trained
# models, daemon logs and other run state go under its perfbench/ subdir.
# The last line of stdout is the JSON result; everything else is stderr or
# human-readable summary lines.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
/*) ;;
*) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p sigserve --bin sigserve --bin sigrouter >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --bin-dir "$target/release" --state-dir "$target/perfbench" "$@"
