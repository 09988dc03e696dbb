#!/usr/bin/env bash
# The benchmark command: builds the `ags` binary and the ledger in release
# mode, then runs the ledger with the given arguments. From the repository
# root:
#
#   bash crates/bench/src/bin/ledger/bench.sh --workload sweep-cold --seed 42 --seconds 20 --trace 0
#
# Both binaries go to $CARGO_TARGET_DIR/release (target/release without
# the variable), where the ledger looks for `ags`. Outside a checkout of
# the repository the first build fails and the script exits non-zero.
set -euo pipefail
here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p ags >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/ledger" "$@"
