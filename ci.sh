#!/bin/sh
# The full CI gate: build, test, lint, format. Run before every push.
# Each stage runs through gate() so the log shows per-stage wall time —
# when CI slows down, the offending stage is visible at a glance.
set -eu

gate() {
    gate_name="$1"
    shift
    gate_start=$(date +%s)
    echo ">>> gate: ${gate_name}: $*"
    "$@"
    echo "<<< gate: ${gate_name}: $(( $(date +%s) - gate_start ))s"
}

gate build cargo build --release
gate test cargo test -q
gate test-workspace cargo test --workspace -q
# Both engines, with the decode cache on and off, must stay in lockstep on
# a fixed budget of generated programs, and sparse physical memory must
# match a dense reference model on as many operation sequences (the
# vendored proptest uses a fixed seed, so the 2048 cases are the same every
# run).
gate engine-lockstep env PROPTEST_CASES=2048 cargo test --release -q -p efex-mips --test superblock --test decode_cache --test sparse_memory
# hostbench is a package of its own, so `--workspace` never builds it; its
# tests pin the public entry points the benchmark drives.
gate hostbench-test cargo test --offline --manifest-path hostbench/Cargo.toml
gate lint cargo run --release -p efex-bench --bin lint -- --baseline BENCH_baseline.json
gate inject cargo run --release -p efex-bench --bin inject -- --all
gate fleet-determinism cargo run --release -p efex-bench --bin fleet -- --tenants 16 --threads 4 --check-determinism
gate fleet-health cargo run --release -p efex-bench --bin fleet -- --tenants 16 --threads 4 --health
gate baseline cargo run --release -p efex-bench --bin report -- --check BENCH_baseline.json
# The superblock engine must reproduce the interpreter-recorded baseline
# bit-exactly (report --record refuses to run under it, so no re-record
# can satisfy this gate). The throughput ratio is printed, not gated.
gate baseline-superblock cargo run --release -p efex-bench --bin report -- --check BENCH_baseline.json --engine superblock
gate snap cargo run --release -p efex-bench --bin snap
gate fleet-migrate cargo run --release -p efex-bench --bin fleet -- --tenants 16 --threads 4 --migrate
gate fleet-kill-shard cargo run --release -p efex-bench --bin fleet -- --tenants 16 --threads 4 --kill-shard 1
gate throughput cargo run --release -p efex-bench --bin fleet -- --throughput
gate clippy cargo clippy --workspace --all-targets -- -D warnings
gate doc env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
gate doctest cargo test --doc --workspace -q
gate fmt cargo fmt --check
# Non-test source lines, printed for the record and never gated on.
scripts/loc.sh || true

echo "ci: all gates passed"
