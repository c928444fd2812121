#!/usr/bin/env bash
# Builds the benchmark (offline, release, the root's default profile) and runs
# it from the repo root: the traced binary — the one with the counting
# allocator — for `--trace 1` and `trace`, the plain binary for everything else.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin=f2c-benchmark
case " $* " in
  *" --trace 1 "* | " trace "*) bin=f2c-benchmark-traced ;;
esac
exec "$target/release/$bin" "$@"
