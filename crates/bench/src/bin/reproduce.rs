//! Regenerates the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p emba-bench --bin reproduce -- all
//! cargo run --release -p emba-bench --bin reproduce -- table2 --runs 5
//! cargo run --release -p emba-bench --bin reproduce -- table1 --profile smoke
//! ```
//!
//! Artifacts (text + JSON) are written to `results/` in the workspace root.

use std::fs;
use std::path::PathBuf;

use emba_bench::{
    bench_batch, bench_blocking, bench_faults, bench_quant, bench_serve, bench_telemetry,
    bench_tensor_kernels, crash_run, figure5, figure6, profile_run, render_table2, render_table3,
    render_table4, render_table5, table1, table2_data, table4_data, table6, table7, trace_run,
    Artifact, Profile,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }

    let mut profile = match flag_value(&args, "--profile").as_deref() {
        Some("smoke") => Profile::smoke(),
        Some("full") => Profile::full(),
        Some("quick") | None => Profile::quick(),
        Some(other) => {
            eprintln!("unknown profile {other:?}; expected smoke|quick|full");
            std::process::exit(2);
        }
    };
    if let Some(runs) = flag_value(&args, "--runs") {
        profile.cfg.runs = runs.parse().expect("--runs expects an integer");
    }
    if let Some(epochs) = flag_value(&args, "--epochs") {
        profile.cfg.train.epochs = epochs.parse().expect("--epochs expects an integer");
    }
    if let Some(scale) = flag_value(&args, "--scale") {
        profile.scale = emba_datagen::Scale(scale.parse().expect("--scale expects a float"));
    }
    if let Some(names) = flag_value(&args, "--datasets") {
        let wanted: Vec<&str> = names.split(',').collect();
        let resolve = |name: &str| {
            emba_datagen::DatasetId::all()
                .into_iter()
                .find(|id| id.name() == name)
                .unwrap_or_else(|| panic!("unknown dataset {name:?}; expected e.g. wdc-computers-small"))
        };
        let ids: Vec<_> = wanted.iter().map(|n| resolve(n)).collect();
        profile.table2_datasets = ids.clone();
        profile.table4_datasets = ids;
    }
    let out_dir = PathBuf::from(flag_value(&args, "--out").unwrap_or_else(|| "results".into()));
    fs::create_dir_all(&out_dir).expect("create output directory");

    // Positional arguments are targets; a token following a `--flag` is that
    // flag's value, not a target.
    let mut targets: Vec<&str> = Vec::new();
    let mut skip_next = false;
    for arg in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if arg.starts_with("--") {
            skip_next = true;
            continue;
        }
        targets.push(arg.as_str());
    }
    let targets: Vec<&str> = if targets.is_empty() || targets.contains(&"all") {
        vec!["table1", "table2", "table3", "table4", "table5", "table6", "table7", "figure5", "figure6"]
    } else {
        targets
    };

    eprintln!(
        "profile {} | scale {} | runs {} | epochs {} | targets {:?}",
        profile.name, profile.scale.0, profile.cfg.runs, profile.cfg.train.epochs, targets
    );

    let emit = |artifact: Artifact| {
        println!("{}", artifact.text);
        let txt = out_dir.join(format!("{}.txt", artifact.id));
        let json = out_dir.join(format!("{}.json", artifact.id));
        fs::write(&txt, &artifact.text).expect("write text artifact");
        fs::write(
            &json,
            serde_json::to_string_pretty(&artifact.json).expect("serialize"),
        )
        .expect("write json artifact");
        eprintln!("[saved] {} and {}", txt.display(), json.display());
    };

    // Tables 2+3 share one grid of training runs, as do 4+5.
    let wants = |t: &str| targets.contains(&t);
    if wants("table1") {
        emit(table1(&profile));
    }
    if wants("table2") || wants("table3") {
        let grid = table2_data(&profile);
        if wants("table2") {
            emit(render_table2(&grid));
        }
        if wants("table3") {
            emit(render_table3(&grid));
        }
    }
    if wants("table4") || wants("table5") {
        let grid = table4_data(&profile);
        if wants("table4") {
            emit(render_table4(&grid));
        }
        if wants("table5") {
            emit(render_table5(&grid));
        }
    }
    if wants("table6") {
        emit(table6(&profile));
    }
    if wants("table7") {
        emit(table7(&profile));
    }
    if wants("figure5") {
        emit(figure5(&profile));
    }
    if wants("figure6") {
        emit(figure6(&profile));
    }
    if wants("bench") {
        // Kernel timing runs fewer samples on the smoke profile so CI-style
        // smoke runs stay fast.
        let samples = if profile.name == "smoke" { 5 } else { 9 };
        emit(bench_tensor_kernels(samples));
    }
    if wants("bench-batch") {
        let (artifact, failures) = bench_batch(&profile);
        emit(artifact);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("bench-batch gate failed: {f}");
            }
            std::process::exit(1);
        }
    }
    if wants("bench-blocking") {
        let (artifact, failures) = bench_blocking(&profile);
        emit(artifact);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("bench-blocking gate failed: {f}");
            }
            std::process::exit(1);
        }
    }
    if wants("bench-quant") {
        let (artifact, failures) = bench_quant(&profile);
        emit(artifact);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("bench-quant gate failed: {f}");
            }
            std::process::exit(1);
        }
    }
    if wants("bench-serve") {
        let (artifact, failures) = bench_serve(&profile);
        emit(artifact);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("bench-serve gate failed: {f}");
            }
            std::process::exit(1);
        }
    }
    if wants("serve-faults") {
        let (artifact, failures) = bench_faults(&profile);
        emit(artifact);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("serve-faults gate failed: {f}");
            }
            std::process::exit(1);
        }
    }
    if wants("bench-telemetry") {
        let (artifact, failures) = bench_telemetry(&profile);
        emit(artifact);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("bench-telemetry gate failed: {f}");
            }
            std::process::exit(1);
        }
    }
    if wants("trace") {
        let name = flag_value(&args, "--trace-name")
            .unwrap_or_else(|| format!("trace-{}", profile.name));
        match trace_run(&profile, emba_core::ModelKind::EmbaSb, &name, &out_dir) {
            Ok(outcome) => {
                eprintln!(
                    "[saved] {} ({} events validated)",
                    outcome.path.display(),
                    outcome.events
                );
                println!(
                    "trace run: {} epochs, {} steps, best valid F1 {:.4}, test F1 {:.4}, \
                     pool hit-rate {:.1}%, {} non-finite events",
                    outcome.summary.epochs_run,
                    outcome.summary.steps,
                    outcome.summary.best_valid_f1,
                    outcome.test_f1,
                    100.0 * outcome.summary.pool_hit_rate,
                    outcome.summary.non_finite_events,
                );
            }
            Err(msg) => {
                eprintln!("trace run failed: {msg}");
                std::process::exit(1);
            }
        }
    }
    if wants("profile") {
        let name = flag_value(&args, "--trace-name")
            .unwrap_or_else(|| format!("profile-{}", profile.name));
        match profile_run(&profile, emba_core::ModelKind::EmbaSb, &name, &out_dir) {
            Ok((artifact, outcome)) => {
                emit(artifact);
                eprintln!("[saved] {}", outcome.trace_path.display());
                eprintln!("[saved] {}", outcome.folded_path.display());
                eprintln!("[saved] {}", outcome.log_path.display());
                println!(
                    "profile run: {} op rows, fwd/bwd coverage {:.1}%, disabled overhead \
                     {:.3}%, test F1 {:.4}",
                    outcome.op_rows,
                    100.0 * outcome.coverage,
                    outcome.overhead_pct,
                    outcome.test_f1,
                );
            }
            Err(msg) => {
                eprintln!("profile run failed: {msg}");
                std::process::exit(1);
            }
        }
    }
    if wants("crash") {
        let name = flag_value(&args, "--trace-name")
            .unwrap_or_else(|| format!("crash-{}", profile.name));
        match crash_run(&profile, emba_core::ModelKind::EmbaSb, &name, &out_dir) {
            Ok(outcome) => {
                eprintln!(
                    "[saved] {} ({} events validated)",
                    outcome.path.display(),
                    outcome.events
                );
                println!(
                    "crash harness: killed at step {}, {} steps replayed bit-identically, \
                     {} corrupt snapshots skipped, test F1 {:.4}",
                    outcome.killed_at_step,
                    outcome.resumed_steps,
                    outcome.corrupt_skipped,
                    outcome.test_f1,
                );
            }
            Err(msg) => {
                eprintln!("crash harness failed: {msg}");
                std::process::exit(1);
            }
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn print_help() {
    println!(
        "reproduce — regenerate the EMBA paper's tables and figures

USAGE:
    reproduce [TARGETS...] [OPTIONS]

TARGETS (default: all):
    table1   dataset statistics
    table2   EM F1 across all models and datasets (+ t-tests)
    table3   entity-ID accuracy / F1 (same runs as table2)
    table4   ablation study F1
    table5   ablation entity-ID metrics (same runs as table4)
    table6   class-imbalance experiment
    table7   training / inference throughput
    figure5  LIME explanations of the case-study pair
    figure6  attention visualization of the case-study pair
    bench    f32 GEMM kernels as GFLOP/s and share of a measured FMA peak (BENCH_tensor.json);
             not part of `all` — run as `reproduce bench --profile smoke`
    bench-batch
             batched train/eval throughput at B in {{1,4,8,16}} vs the
             per-example path at the same accumulation window
             (BENCH_batch.json), gated on the B=8 speedup floors plus
             batched-vs-per-example equivalence. Not part of `all` —
             run as `reproduce bench-batch --profile smoke`
    bench-blocking
             end-to-end catalog matching on a synthetic product catalog:
             blocking index + per-record encoding cache vs the per-pair
             predict path (BENCH_blocking.json), gated on the speedup,
             blocking-recall, and encodes-per-pair floors. Not part of
             `all` — run as `reproduce bench-blocking --profile smoke`
    bench-quant
             post-training int8 inference vs the f32 baseline: probability
             and F1 equivalence on the test splits (SIMD tier and forced
             scalar) plus interleaved encode+score throughput
             (BENCH_quant.json), gated on the equivalence bounds, profiler
             attribution of the quantized ops, and — on quick/full with a
             SIMD tier available — the 1.5x speedup floor. Honors
             EMBA_FORCE_SCALAR=1 for portable-path CI runs. Not part of
             `all` — run as `reproduce bench-quant --profile smoke`
    bench-serve
             concurrent match serving through the emba-serve engine
             (request coalescing + shared encoding cache) vs the serial
             per-request predict path (BENCH_serve.json), gated on
             all-requests-answered, served-vs-predict equivalence, and —
             on quick/full — the speedup floor. Not part of `all` — run
             as `reproduce bench-serve --profile smoke`
    serve-faults
             overload and fault-injection harness for the serving engine:
             deterministic goodput simulation at 1-10x offered load plus
             injected flush panics, NaN weights, poison records, and a 10x
             admission burst (BENCH_faults.json), gated on exactly-once
             answers, queue bounds, post-fault recovery, and goodput under
             overload ≥ 50% of the no-overload baseline. Not part of
             `all` — run as `reproduce serve-faults --profile smoke`
    bench-telemetry
             request-scoped tracing overhead (spans on vs off, exact
             latencies from response timestamps) plus validation of the
             live telemetry endpoint (/metrics exposition, /healthz,
             /snapshot, /trace) (BENCH_telemetry.json), gated on the 3%
             overhead ceiling on quick/full. Not part of `all` — run as
             `reproduce bench-telemetry --profile smoke`
    trace    one observed training run with the non-finite guard on; writes
             the event log to results/runs/<name>.jsonl and validates it.
             Not part of `all` — run as `reproduce trace --profile smoke`
    profile  one profiled train+eval cycle: writes the chrome://tracing
             timeline and folded flamegraph stacks to results/profiles/,
             merges the per-op table into the run summary, and validates
             percentiles, coverage, and the disabled-mode overhead
             (BENCH_profile.json). Not part of `all` — run as
             `reproduce profile --profile smoke`
    crash    fault-injection harness for crash-safe training: kills a run
             mid-epoch, resumes from the checkpoint store, corrupts
             snapshots, and asserts every replay is bit-identical to the
             uninterrupted baseline. Not part of `all` — run as
             `reproduce crash --profile smoke`

OPTIONS:
    --profile smoke|quick|full   compute budget (default quick)
    --runs N                     repeated runs per cell
    --epochs N                   fine-tuning epochs
    --scale F                    dataset scale vs Table 1 counts
    --datasets a,b,c             restrict table2-5 dataset rows by name
    --out DIR                    artifact directory (default results/)
    --trace-name NAME            run-log name for the trace target
                                 (default trace-<profile>)"
    );
}
