#!/usr/bin/env bash
# Tier-1 gate: release build, the test suite, warning-free clippy (every
# target, tests and examples included) and rustdoc passes, and the two
# examples that double as gates, and one full-size traced benchmark run.
# Behaviour is gated by tests and speed by `benchmark/` (DESIGN.md §7);
# nothing here gates on a speed, only on that run's shares of its own wall.
# Run from the workspace root before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

# DESIGN.md describes the system as it is; history goes to CHANGES.md and
# results/PR*.md. Fail before it grows back past 60 KB.
design_bytes=$(wc -c < DESIGN.md)
if [ "$design_bytes" -ge 60000 ]; then
    echo "DESIGN.md is $design_bytes bytes; keep it under 60 KB (move history to results/)" >&2
    exit 1
fi

# A `Param` finds its leaf by `Graph::id`; `GraphStamp` is an inert token
# left only in the two split-path signatures the frozen benchmark calls.
# Fail if it spreads back beyond its definition, those two methods and the
# tests that call them.
stray_stamps=$(git grep -l -w GraphStamp -- crates examples src tests | grep -v -x -F \
    -e crates/nn/src/param.rs -e crates/nn/src/lib.rs \
    -e crates/core/src/models.rs \
    -e crates/core/tests/catalog_matching.rs -e crates/core/tests/infer_bits.rs \
    -e crates/serve/tests/scoring_oracle.rs || true)
if [ -n "$stray_stamps" ]; then
    echo "GraphStamp outside its allowlist: $stray_stamps" >&2
    exit 1
fi

# The installed backend is read in three places besides its definition: the
# tape's one int8 switch (`Linear::forward`), joint inference and the two
# frozen split-method wrappers. Everything else takes the backend as a value.
# Fail if another reader appears, so deleting the thread-local stays bounded.
stray_kinds=$(git grep -l -E 'backend::(kind|\{[^}]*\bkind\b)' -- crates examples src tests | grep -v -x -F \
    -e crates/tensor/src/backend.rs -e crates/nn/src/layers.rs -e crates/core/src/models.rs || true)
if [ -n "$stray_kinds" ]; then
    echo "backend::kind() read outside its allowlist: $stray_kinds" >&2
    exit 1
fi

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
# Dead intra-doc links (a renamed internal, a public doc pointing at a
# private item) fail here rather than rot.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Forced-scalar leg: the tensor and nn crates' whole suites again with the
# `simd::level()` cap at the portable tier (both GEMM tiles, f32 and u8xi8,
# and the quantization passes), so every test that does not sweep the tiers
# itself runs the portable definitions too; the sweeping tests
# (`simd::on_every_tier`, used by the tensor suites and serve's
# `scoring_oracle`) already run every tier the CPU has, AVX-512 included.
# The suite's `forced_scalar_env_runs_the_portable_tile` fails if GEMM
# bypasses the cap, and nn's `tests/eval_bits.rs` holds the forward-only
# encoder to the tape on the portable tiles. Core's `tests/infer_bits.rs`
# does the same for joint inference (`Matcher::infer_batch`) on every model
# of Tables 2 and 4, and for the split path's tape-free pair score
# (`split_score_is_the_tape_bit_for_bit`). The pinned fine-tune loss bits
# and the bit-exact resume tests run on the portable tier too, so training
# (dropout stream, fused optimizer pass, backward kernels) is held to the
# same constants there.
EMBA_FORCE_SCALAR=1 cargo test -q -p emba-tensor -p emba-nn
EMBA_FORCE_SCALAR=1 cargo test -q -p emba-core --test infer_bits
EMBA_FORCE_SCALAR=1 cargo test -q -p emba-core --lib -- train::tests::fine_tune_bits_are_pinned resume::

# The end-to-end benchmark is a workspace of its own built against this
# one's public API: its unit tests plus every workload at --tiny size, so an
# API break fails here rather than in the benchmark pipeline.
cargo test -q --manifest-path benchmark/Cargo.toml
# The --tiny runs skip the traced run's 0.9 op-coverage check; one
# full-size traced run keeps it (it fails when a helper thread's profiler
# ops never reach the caller's report).
cargo run --release --manifest-path benchmark/Cargo.toml -- run --workload catalog_sparse_f32 --seed 1 --seconds 1 --trace 1

# The front door: quickstart trains EMBA and asserts test F1 > 0,
# p(samsung match) > p(sandisk/transcend non-match), and that the int8
# backend tracks f32 on the trained model's test split, before it exits 0.
cargo run --release --example quickstart

# Observability: a small traced and profiled training run must leave a
# non-empty JSONL event log and Chrome trace.
rm -f results/runs/example.jsonl results/profiles/example.trace.json
cargo run --release --example traced_training
test -s results/runs/example.jsonl
test -s results/profiles/example.trace.json
