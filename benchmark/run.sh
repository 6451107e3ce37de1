#!/bin/sh
# Build the harness offline and run every workload once, end to end.
# Prints every metric by name and writes benchmark/out/results.json
# (name, unit, direction, bound, median, quartiles, n, attempted, failed
# per metric x workload). Extra arguments go to `all`: --seed N, --seconds S.
set -eu
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all "$@"
