#!/usr/bin/env bash
# The one command: builds the benchmark package offline and runs it.
# Arguments are passed through; see README.md or `run.sh --help`.
# The build lands in CARGO_TARGET_DIR when set, else in benchmark/target/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
