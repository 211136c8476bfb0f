#!/usr/bin/env bash
# Tier-1 gate: release build and tests of the benchmark package too,
# full test suite, the quick figure records, the byte-verifying
# examples, and clippy with warnings
# denied (the root Cargo.toml's
# [workspace.lints.clippy] table bans unwrap/expect/panic, discarded
# results and unreasoned #[allow] in every crate and bin; clippy.toml
# bans per-op Backend calls outside the I/O plane and unranked locks).
# Crash recovery needs no stage of its own: the
# workspace tests include tests/crash_states.rs, which checks every
# crash state of its scenarios with no seed to pin. Lock order and
# guards across I/O are checked by the ranked locks of plfs::sync in
# every debug test, and DESIGN.md's contract tables and the suppression
# budget by tests/contracts.rs. Everything runs
# offline against the vendored dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
# The benchmark is a package outside the workspace: build and test it
# here so an API removal that breaks its imports fails this gate first,
# and so its transparency test checks that the passthrough `Reactor` it
# builds under the middleware passes every op to the device exactly once.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo test -q --workspace --offline
# The quick figure records are checked, not trusted: each of these bins
# prints simulated quantities only, so a run at the default repetitions
# must reproduce its committed `results/<bin>.txt` byte for byte (about
# 15 s in all). fig2, fig4, fig5 and fig8 take minutes and stay out.
for fig in fig7 fig_burst whatif ablate_threshold ablate_groups ablate_subdirs ablate_locks; do
    env -u FIG_REPS -u FIG_QUICK \
        cargo run -q --release --offline -p plfs-bench --bin "$fig" | diff -u "results/$fig.txt" -
done
# `cargo test` compiles the examples but runs none of them: run the two
# that byte-verify what they read back (each exits non-zero on a
# mismatch) — the mount over a real directory, and crash recovery.
demo_root=$(mktemp -d)
cargo run --release --offline -p plfs --example localfs_demo -- "$demo_root"
rm -rf "$demo_root"
cargo run --release --offline --example crash_recovery
# An unfulfilled #[expect(clippy::..)] is a warning, so this also fails
# on a suppression that no longer suppresses anything. The root
# clippy.toml adds disallowed-methods: a per-op `Backend` call outside
# the I/O plane fails here, so every backend call is retried by the
# plane; and disallowed-types: a std Mutex or RwLock outside plfs::sync
# would be a lock with no rank (DESIGN.md §5d). Every target is checked:
# a test crate that needs it (and a library's unit tests, through a
# `cfg_attr(test, ..)`) carries one reasoned `#![allow(..)]` for the
# unwraps, expects and panics, per-op setup calls or unranked test locks
# it has, and every other lint holds there as in production.
cargo clippy --workspace --all-targets --offline -- -D warnings

# Docs are part of the contract: rustdoc must build warning-clean
# (missing_docs is deny-by-lint in crates/core) and every doctest in
# the public API must pass.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
cargo test -q --doc --offline --workspace
