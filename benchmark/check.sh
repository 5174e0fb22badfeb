#!/usr/bin/env bash
# Lints and tests of the standalone benchmark package (the root CI does
# not see it).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
