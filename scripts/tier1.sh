#!/usr/bin/env bash
# Tier-1 gate: release build, the fast test suite, and a warning-free clippy
# pass. Run from the workspace root before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace -- -D warnings

# Forced-scalar leg: the tensor crate's whole suite again with every
# `simd::level()` dispatch pinned to the portable definitions (both GEMM
# tiles, f32 and u8xi8, and the quantization passes), so those run on AVX2
# CI boxes too and not only inside the in-process `set_forced_scalar` tests
# (`tests/prop_q8.rs` also calls each int8 tile body directly); the suite's
# `forced_scalar_env_runs_the_portable_tile` fails if GEMM bypasses it.
# Scoped to this one command — the bench gates below must time the
# detected tier.
EMBA_FORCE_SCALAR=1 cargo test -q -p emba-tensor

# The end-to-end benchmark is a workspace of its own built against this
# one's public API: its unit tests plus every workload at --tiny size, so an
# API break fails here rather than in the benchmark pipeline.
cargo test -q --manifest-path benchmark/Cargo.toml

# The front door: quickstart trains EMBA and asserts test F1 > 0 and
# p(samsung match) > p(sandisk/transcend non-match) before it exits 0.
cargo run --release --example quickstart

# Observability smoke: a tiny traced training run must produce a non-empty,
# well-formed JSONL event log (the trace target itself validates every line
# and exits non-zero on empty/malformed output), in which MLM pre-training
# shows up as a run of its own.
rm -f results/runs/tier1-smoke.jsonl
cargo run --release -p emba-bench --bin reproduce -- \
    trace --profile smoke --trace-name tier1-smoke
test -s results/runs/tier1-smoke.jsonl
grep -q '"event":"run_start","model":"mlm:' results/runs/tier1-smoke.jsonl

# Profiler smoke: one profiled train+eval cycle. The profile target itself
# validates that the Chrome trace parses with a non-empty traceEvents, that
# every histogram's percentiles are finite and ordered (p50 <= p90 <= p99),
# that op self-times cover the forward/backward wall time within 10%, and
# that the disabled-mode hook overhead stays under 2% — and exits non-zero
# on any failed check.
rm -f results/profiles/tier1-profile.trace.json
cargo run --release -p emba-bench --bin reproduce -- \
    profile --profile smoke --trace-name tier1-profile
test -s results/profiles/tier1-profile.trace.json
test -s results/profiles/tier1-profile.folded

# Crash-safety smoke: kill a training run mid-epoch, resume from the
# checkpoint store, inject corruption, and require every replay to be
# bit-identical to the uninterrupted baseline (the harness exits non-zero
# on any divergence). The resume must also be visible in the event log.
cargo run --release -p emba-bench --bin reproduce -- \
    crash --profile smoke --trace-name tier1-crash
grep -q '"event":"resume"' results/runs/tier1-crash.jsonl

# Batched-execution smoke: the batched train/eval sweep must stay within its
# floors of the per-example twin at B=8 (regression guards ~10% under the
# lowest measured run; they live in crates/bench/src/batch_bench.rs),
# batched probabilities must match per-example within 1e-5, and a B=1 batch
# must be bit-identical to the per-example wrapper. The bench-batch target
# exits non-zero if any gate fails; the JSON must also parse and record a
# pass.
cargo run --release -p emba-bench --bin reproduce -- \
    bench-batch --profile smoke
python3 - <<'PY'
import json
report = json.load(open("results/BENCH_batch.json"))
assert report["pass"], "BENCH_batch.json records a failed gate"
b8 = next(p for p in report["points"] if p["batch_size"] == 8)
assert b8["train_speedup"] >= report["required_train_speedup_b8"]
assert b8["eval_speedup"] >= report["required_eval_speedup_b8"]
PY

# Catalog-matching smoke: blocking + encoding cache on a small synthetic
# catalog must beat the per-pair predict baseline by the floors in
# crates/bench/src/blocking_bench.rs (speedup, blocking recall, encodes per
# pair, cache reuse); the target exits non-zero if any gate fails. Writes to
# results/tier1/ so the committed quick-profile BENCH_blocking.json is not
# clobbered.
cargo run --release -p emba-bench --bin reproduce -- \
    bench-blocking --profile smoke --out results/tier1
python3 - <<'PY'
import json
report = json.load(open("results/tier1/BENCH_blocking.json"))
assert report["pass"], "BENCH_blocking.json records a failed gate"
assert report["blocking_recall"] >= report["required_recall"]
assert report["cache_hit_rate"] > 0.0, "encoding cache never hit"
assert report["encodes_per_pair"] < report["max_encodes_per_pair"]
assert report["speedup_vs_per_pair"] >= report["required_speedup"]
PY

# Serving smoke: a tiny concurrent load run through the emba-serve engine.
# Every submitted request must be answered (none dropped, none expired
# under the generous bench budget) and the served probabilities must match
# per-request predict within the 1e-5 ceiling; the target exits non-zero if
# any gate fails. The speedup floor is only enforced on quick/full — the
# smoke workload is too small to time meaningfully. Writes to results/tier1/
# so the committed quick-profile BENCH_serve.json is not clobbered.
cargo run --release -p emba-bench --bin reproduce -- \
    bench-serve --profile smoke --out results/tier1
python3 - <<'PY'
import json
report = json.load(open("results/tier1/BENCH_serve.json"))
assert report["pass"], "BENCH_serve.json records a failed gate"
assert report["answered"] == report["requests"], "requests were dropped"
assert report["expired"] == 0, "requests expired under the bench budget"
assert report["max_abs_dprob"] <= report["max_allowed_dprob"]
assert report["latency_p99_ns"] > 0.0, "latency histogram is empty"
PY

# Fault-tolerance smoke: the serving engine under injected flush panics,
# NaN weights, poison records, and overload. The engine must stay alive
# through three consecutive panics and answer again after restarting, a 10x
# admission burst must bound the queue and reject the excess, and goodput
# under overload must stay >= 50% of the no-overload baseline (graceful
# degradation, not collapse). Every request in every scenario is answered
# exactly once; the target exits non-zero if any gate fails.
cargo run --release -p emba-bench --bin reproduce -- \
    serve-faults --profile smoke --out results/tier1
python3 - <<'PY'
import json
report = json.load(open("results/tier1/BENCH_faults.json"))
assert report["gate_failures"] == [], report["gate_failures"]
faults = report["faults"]
assert faults["panic_failures"] == 3 and faults["restarts"] >= 3
assert faults["recovered"], "engine did not answer after injected panics"
assert faults["burst_rejected"] > 0, "10x burst tripped no admission control"
assert faults["nan_failures"] > 0, "NaN weights leaked past the guard"
assert faults["poison_answered"] == faults["poison_requests"]
baseline = next(p for p in report["overload"] if p["multiplier"] == 1)
for p in report["overload"]:
    assert p["scored"] + p["expired"] + p["rejected"] + p["shed"] == p["offered"]
    assert p["peak_queue_depth"] <= report["sim_queue_depth"], "queue bound violated"
    if p["multiplier"] > 1:
        assert p["goodput"] >= report["min_goodput_ratio"] * baseline["goodput"]
PY

# Telemetry smoke: the tracing-overhead bench plus the live HTTP endpoint.
# The target itself starts an engine with telemetry enabled, scrapes all
# four routes under concurrent load, validates the Prometheus exposition
# with the strict parser, and requires /healthz to flip live -> draining
# across shutdown, exiting non-zero on any failure. The 3% overhead ceiling
# is only enforced on quick/full — the smoke workload is too small to time
# meaningfully — but even on smoke the disabled run must record zero span
# events (the allocation-free-when-off contract) and the enabled run must
# record spans and produce flush timelines.
cargo run --release -p emba-bench --bin reproduce -- \
    bench-telemetry --profile smoke --out results/tier1
python3 - <<'PY'
import json
report = json.load(open("results/tier1/BENCH_telemetry.json"))
assert report["pass"], "BENCH_telemetry.json records a failed gate"
assert report["disabled_trace_events"] == 0, "untraced run recorded spans"
assert report["enabled_trace_events"] > 0, "traced run recorded no spans"
assert report["metric_families"] > 0, "/metrics exposed no families"
assert report["trace_timelines"] > 0, "/trace returned no flush timelines"
snap = report["enabled_snapshot"]
assert snap["scored"] == report["requests"], "requests were dropped"
PY

# Quantized-inference gate: the int8 backend must track f32 within the
# documented bounds (max |dp| <= 1e-2, |dF1| <= 0.005) on real test splits,
# for BOTH the detected SIMD tier and the interleaved scalar-fallback leg
# (the bench pins the portable kernels in-process for that leg), and a
# profiled int8 pass must attribute linear_q8 ops. The gate deliberately
# does NOT export EMBA_FORCE_SCALAR for the whole process: that would also
# retrain the f32 baseline on different f32 kernels, and the equivalence
# bound is calibrated against the canonically-trained model — the
# env-variable path itself is pinned by emba-tensor's forced-scalar tests.
# Writes to results/tier1/ so the committed artifact is not clobbered.
cargo run --release -p emba-bench --bin reproduce -- \
    bench-quant --profile quick --out results/tier1
python3 - <<'PY'
import json
report = json.load(open("results/tier1/BENCH_quant.json"))
assert report["pass"], "BENCH_quant.json records a failed gate"
assert report["quantized_ops_profiled"] > 0, "profiler saw no linear_q8 ops"
assert report["throughput"]["speedup"] >= report["required_speedup"], report["throughput"]
for d in report["equivalence"]:
    assert d["scalar"]["backend"] == "int8-scalar", d
    for leg in (d["simd"], d["scalar"]):
        assert leg["max_abs_dprob"] <= report["max_allowed_dprob"], d
        assert leg["f1_delta"] <= report["max_allowed_f1_delta"], d
PY
