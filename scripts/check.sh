#!/usr/bin/env sh
# Tier-1 gate: build, test, format-, lint- and doc-check the whole workspace.
# Offline-safe: all dependencies are workspace-local (see vendor/).
set -eu

cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test --workspace --offline -q
cargo fmt --check
cargo clippy --workspace --offline --all-targets -- -D warnings
# Rustdoc gate: every intra-doc link must resolve.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Golden-file gates (also part of the workspace test run, invoked explicitly
# so a drift in the HTML campaign explorer, the campaign diff report, or the
# VCD waveform exporter fails loudly and names the fix): re-bless with
# `BLESS=1 cargo test --offline --test html_golden` (or --test vcd_golden,
# --test diff_html_golden) after an intentional rendering change.
cargo test --offline -q --test html_golden
cargo test --offline -q --test diff_html_golden
cargo test --offline -q --test vcd_golden
cargo test --offline -q --test cemit_golden
