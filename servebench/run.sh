#!/usr/bin/env bash
# Builds `streamlink serve` and the benchmark binary from source, then runs
# the benchmark with the given arguments:
#
#   bash servebench/run.sh --workload ingest|query|mixed-mem --seed N \
#       --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); prepared start states and run directories go to
# $CARGO_TARGET_DIR/servebench.
set -euo pipefail
here="$(dirname "$0")"
root="$here/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
# Outside a git checkout the server's build script re-runs on every
# `cargo build`, which relinks both binaries and, by their new mtimes,
# invalidates every cached start state. So build only when a build input
# changed, as recorded by a digest of their contents.
sources="$(cd "$root" && find Cargo.toml Cargo.lock crates vendor \
    servebench/Cargo.toml servebench/Cargo.lock servebench/src \
    -type f -print0 | LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum)"
stamp="$target/servebench/sources.sha256"
if [[ ! -x "$target/release/streamlink" || ! -x "$target/release/servebench" \
    || "$(cat "$stamp" 2>/dev/null)" != "$sources" ]]; then
    cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p streamlink-cli >&2
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
    mkdir -p "$target/servebench"
    printf '%s\n' "$sources" >"$stamp"
fi
exec "$target/release/servebench" \
    --serve-bin "$target/release/streamlink" \
    --work-dir "$target/servebench" \
    "$@"
