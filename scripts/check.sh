#!/usr/bin/env sh
# The full local gate: formatting, release build (including the
# examples), test suite (again with the trace feature on), and clippy
# with warnings denied.
#
# Formatting and clippy are scoped to the oppsla crates: the vendored
# stubs under vendor/ are workspace members but not ours to lint.
#
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

OPPSLA_PKGS="-p oppsla -p oppsla-tensor -p oppsla-obs -p oppsla-core \
    -p oppsla-nn -p oppsla-data -p oppsla-attacks -p oppsla-eval \
    -p oppsla-bench -p oppsla-server"

cargo fmt $OPPSLA_PKGS --check
cargo build --release
cargo build --release --examples
cargo test -q --workspace
# The SIMD micro-kernels are bit-identical to scalar by construction, so
# the kernel/engine test surface must stay green with the escape hatch
# thrown: this covers the env-var resolution path the in-process
# force_simd_level tests cannot reach.
OPPSLA_NO_SIMD=1 cargo test -q -p oppsla-tensor -p oppsla-nn -p oppsla
# `trace` is the one cargo feature: the per-query recorder, its hooks in
# core/nn/attacks/eval, and the thread-count-invariance test only
# compile under it. Per-package (not --workspace): the vendored stubs
# have no such feature.
cargo test -q -p oppsla-obs -p oppsla-core -p oppsla-nn -p oppsla-attacks \
    -p oppsla-eval -p oppsla-bench -p oppsla-server --features trace
# The bench-gate self-test is pure shell; it runs in milliseconds.
sh scripts/test_bench_gate.sh
# One clippy pass over every target (lib, bins, tests, benches,
# examples) with the trace feature on, so warnings in trace-only code
# are also denied.
cargo clippy $OPPSLA_PKGS --all-targets \
    --features oppsla-obs/trace,oppsla-core/trace,oppsla-nn/trace,oppsla-attacks/trace,oppsla-eval/trace,oppsla-bench/trace,oppsla-server/trace \
    -- -D warnings
echo "check.sh: all green"
