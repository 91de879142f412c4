#!/usr/bin/env bash
# Lints and unit-tests the benchmark's own workspace, offline.
# Run from anywhere: it changes into this directory first.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
