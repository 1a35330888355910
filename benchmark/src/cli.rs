//! Command line: `run`, `trace`, `spread`, `compare`, `regen-golden`.
//!
//! The driver calls `run --workload <name> --seed <n> --seconds <s> --trace
//! <0|1>` and reads the last line of standard output, one JSON object with
//! exactly the keys `correct`, `attempted`, `failed` and `metrics`. Everything
//! above that line is for people: the environment block, the workload's
//! shape and sample counts, and every metric by name with its unit.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

use crate::compare::{append_run, compare, read_runs, spread_table};
use crate::golden;
use crate::registry::{metrics_json, MetricDef, Workload, END_TO_END, PER_LAYER};
use crate::run::{Options, Outcome};
use crate::setup::env_block;
use crate::spans::Recorder;
use crate::{catalog, object, serve, text, train};

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const DEFAULT_SECONDS: f64 = 12.0;
/// The default workload seed; [`golden::SEEDS`] names the other checked one.
pub const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage:
  run   (--workload <name> | --all) [--seed <n>] [--seconds <s>] [--trace <0|1>] [--tiny] [--out <run-set.json>]
  trace --workload <name> [--seed <n>] [--seconds <s>] [--tiny] [--out <run-set.json>]
  spread [--workload <name>] [--runs <n>] [--seed <first seed>] [--seconds <s>] --out <run-set.json>
  compare <a.json> <b.json>
  regen-golden
  manifest            (prints BENCHMARK.json from the registry)
workloads: catalog_sparse_f32 catalog_sparse_int8 catalog_dense_f32 serve_open_f32 train_eval_joint";

/// One finished run: what to print and what to store.
pub struct Finished {
    /// The workload's outcome.
    pub outcome: Outcome,
    /// Every declared metric of the run kind with its value.
    pub resolved: Vec<(&'static MetricDef, f64)>,
    /// The record stored in run sets (result line plus workload, seed, env).
    pub record: Value,
    /// The driver's result line.
    pub result_line: String,
    /// Whether every check passed.
    pub correct: bool,
}

/// Runs one workload in this process.
pub fn execute(opts: &Options) -> Result<Finished, String> {
    let mut rec = Recorder::new();
    let mut outcome = match (opts.workload, opts.trace) {
        (w, false) if w.is_catalog() => catalog::run(opts),
        (w, true) if w.is_catalog() => catalog::trace(opts, &mut rec),
        (Workload::ServeOpenF32, false) => serve::run(opts),
        (Workload::ServeOpenF32, true) => serve::trace(opts, &mut rec),
        (_, false) => train::run(opts),
        (_, true) => train::trace(opts, &mut rec),
    }?;
    if opts.trace {
        let file = golden::bench_dir().join("out").join(format!(
            "trace_{}_seed{}.json",
            opts.workload.name(),
            opts.seed
        ));
        rec.write(&file)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        outcome.notes.push(format!(
            "trace: {} spans written to {}",
            rec.spans().len(),
            file.display()
        ));
        outcome
            .metrics
            .put("bench.fail_share", outcome.ledger.fail_share());
        outcome
            .metrics
            .put("bench.span_count", rec.spans().len() as f64);
    }
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    let resolved = outcome.metrics.resolve(defs, opts.workload)?;
    if let Some((d, _)) = resolved
        .iter()
        .find(|(d, v)| d.bound.is_some() && *v == 0.0)
    {
        return Err(format!("end-to-end metric {} read 0", d.name));
    }
    let correct = outcome.ledger.failed == 0;
    let result = [
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(outcome.ledger.attempted.max(1))),
        ("failed", Value::UInt(outcome.ledger.failed)),
        ("metrics", metrics_json(&resolved)),
    ];
    let result_line =
        serde_json::to_string(&object(result.clone())).expect("a Value tree always serializes");
    let run = [
        ("workload", text(opts.workload.name())),
        ("seed", Value::UInt(opts.seed)),
        ("trace", Value::Bool(opts.trace)),
    ];
    let env = env_block(opts, &outcome.backend, outcome.sizes.clone());
    let record = object(run.into_iter().chain(result).chain([("env", env)]));
    Ok(Finished {
        outcome,
        resolved,
        record,
        result_line,
        correct,
    })
}

fn print(opts: &Options, done: &Finished) {
    println!(
        "workload {} seed {} ({})",
        opts.workload.name(),
        opts.seed,
        if opts.trace {
            "traced run: per-layer metrics"
        } else {
            "end-to-end run"
        }
    );
    println!("why: {}", opts.workload.why());
    println!(
        "env {}",
        serde_json::to_string(&done.record["env"]).expect("a Value tree always serializes")
    );
    for note in &done.outcome.notes {
        println!("{note}");
    }
    for (d, v) in &done.resolved {
        if d.applies(opts.workload) {
            println!("  {:<40} {:>16.6} {}", d.name, v, d.unit);
        } else {
            println!("  {:<40} {:>16} {}", d.name, "-", d.unit);
        }
    }
    let ledger = &done.outcome.ledger;
    println!(
        "checks: {} attempted, {} failed (fail_share {:.6})",
        ledger.attempted,
        ledger.failed,
        ledger.fail_share()
    );
    for example in &ledger.examples {
        println!("  failed: {example}");
    }
    println!("{}", done.result_line);
}

struct Args {
    rest: Vec<String>,
}

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.rest.len() != before
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(at) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 >= self.rest.len() {
            return Err(format!("{name} needs a value"));
        }
        let value = self.rest.remove(at + 1);
        self.rest.remove(at);
        Ok(Some(value))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.value(name)? {
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
            None => Ok(default),
        }
    }

    fn done(self) -> Result<(), String> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!("unexpected arguments {:?}", self.rest))
        }
    }
}

fn workload_arg(args: &mut Args) -> Result<Option<Workload>, String> {
    args.value("--workload")?
        .map(|name| Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}")))
        .transpose()
}

/// Runs this executable again with `args`; each workload gets a process of
/// its own so that `setup_s` and `peak_rss_mb` are per workload.
fn child(args: &[String], capture: bool) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(args);
    if capture {
        let out = cmd.output().map_err(|e| e.to_string())?;
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        Ok((out.status.success(), text))
    } else {
        Ok((
            cmd.status().map_err(|e| e.to_string())?.success(),
            String::new(),
        ))
    }
}

fn run_command(mut args: Args, force_trace: bool) -> Result<i32, String> {
    let all = args.flag("--all");
    let tiny = args.flag("--tiny");
    let workload = workload_arg(&mut args)?;
    let seed = args.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    let trace = force_trace || args.parsed("--trace", 0u8)? != 0;
    let out = args.value("--out")?.map(PathBuf::from);
    args.done()?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    if all {
        let mut ok = true;
        for w in Workload::ALL {
            let mut child_args: Vec<String> =
                ["run", "--workload", w.name()].map(String::from).to_vec();
            child_args.extend([
                "--seed".to_string(),
                seed.to_string(),
                "--seconds".to_string(),
                seconds.to_string(),
            ]);
            child_args.extend(["--trace".to_string(), u8::from(trace).to_string()]);
            if tiny {
                child_args.push("--tiny".to_string());
            }
            if let Some(path) = &out {
                child_args.extend(["--out".to_string(), path.display().to_string()]);
            }
            ok &= child(&child_args, false)?.0;
        }
        return Ok(i32::from(!ok));
    }
    let workload = workload.ok_or("run needs --workload <name> or --all")?;
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        tiny,
    };
    let done = execute(&opts)?;
    if let Some(path) = &out {
        append_run(path, done.record.clone())?;
    }
    print(&opts, &done);
    Ok(i32::from(!done.correct))
}

/// Ten (or `--runs`) runs per workload, each with another seed, then the
/// quartile spread of every end-to-end metric as a share of its median:
/// the acceptance computation the driver makes.
fn spread_command(mut args: Args) -> Result<i32, String> {
    let only = workload_arg(&mut args)?;
    let runs: u64 = args.parsed("--runs", 10)?;
    let first_seed: u64 = args.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    let out = PathBuf::from(
        args.value("--out")?
            .ok_or("spread needs --out <run-set.json>")?,
    );
    args.done()?;
    for w in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        for k in 0..runs {
            let seed = first_seed + k;
            let child_args: Vec<String> = [
                "run",
                "--workload",
                w.name(),
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--out",
                &out.display().to_string(),
            ]
            .map(String::from)
            .to_vec();
            let (ok, output) = child(&child_args, true)?;
            eprintln!(
                "{} seed {seed}: {}",
                w.name(),
                if ok { "ok" } else { "FAILED" }
            );
            if !ok {
                eprintln!("{output}");
                return Ok(1);
            }
        }
    }
    let (table, steady) = spread_table(&read_runs(&out)?);
    print!("{table}");
    println!(
        "{}",
        if steady {
            "every spread is below a third of its bound"
        } else {
            "some spread exceeds a third of its bound"
        }
    );
    Ok(i32::from(!steady))
}

fn compare_command(args: Args) -> Result<i32, String> {
    let [a, b] = &args.rest[..] else {
        return Err("compare needs two run-set files".to_string());
    };
    let (ra, rb) = (read_runs(Path::new(a))?, read_runs(Path::new(b))?);
    if ra.is_empty() || rb.is_empty() {
        return Err("a run set is empty or missing".to_string());
    }
    let (table, regressions, unresolved) = compare(&ra, &rb);
    print!("{table}");
    println!("{regressions} regressions, {unresolved} unresolved");
    Ok(i32::from(regressions > 0))
}

/// Rewrites the committed golden probabilities. Refuses when the program's
/// sources differ from the commit: the files must describe committed code.
fn regen_golden(args: Args) -> Result<i32, String> {
    args.done()?;
    let program = [
        "crates",
        "vendor",
        "src",
        "Cargo.toml",
        "Cargo.lock",
        ".cargo",
    ];
    let status = Command::new("git")
        .args(["status", "--porcelain", "--"])
        .args(program)
        .output()
        .map_err(|e| format!("git: {e}"))?;
    if !status.status.success() {
        return Err("regen-golden needs a git checkout (git status failed)".to_string());
    }
    let dirty = String::from_utf8_lossy(&status.stdout);
    if !dirty.trim().is_empty() {
        return Err(format!(
            "the program's sources differ from the commit; commit or revert first:\n{dirty}"
        ));
    }
    for w in Workload::ALL.into_iter().filter(|w| w.is_catalog()) {
        for seed in golden::SEEDS {
            let scored = catalog::f32_reference(w, seed)?;
            let file = golden::path(w, seed);
            if let Some(dir) = file.parent() {
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            }
            std::fs::write(&file, golden::document(w, seed, &scored))
                .map_err(|e| format!("{}: {e}", file.display()))?;
            println!("wrote {} ({} scored pairs)", file.display(), scored.len());
        }
    }
    Ok(0)
}

/// `BENCHMARK.json` as the registry declares it; `manifest > BENCHMARK.json`
/// after adding a metric keeps the two equal (a test compares them).
pub fn manifest() -> String {
    let metric = |d: &MetricDef| {
        let named = [
            ("name", text(d.name)),
            ("unit", text(d.unit)),
            ("better", text(d.better.word())),
        ];
        object(
            named
                .into_iter()
                .chain(d.bound.map(|b| ("bound", Value::Float(b)))),
        )
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let workloads = Workload::ALL
        .iter()
        .map(|w| object([("name", text(w.name())), ("why", text(w.why()))]));
    let doc = object([
        (
            "command",
            Value::Array(command.iter().map(|c| text(c)).collect()),
        ),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", Value::UInt(DEFAULT_SECONDS as u64)),
        ("workloads", Value::Array(workloads.collect())),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(metric).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("a Value tree always serializes") + "\n"
}

/// Entry point; returns the process exit code.
pub fn main(argv: Vec<String>) -> i32 {
    let (command, rest) = match argv.split_first() {
        Some((first, rest)) if !first.starts_with("--") => (first.as_str(), rest.to_vec()),
        // The bare flag form the driver may use: `--workload ...` means `run`.
        Some(_) => ("run", argv.clone()),
        None => ("help", Vec::new()),
    };
    let args = Args { rest };
    let outcome = match command {
        "run" => run_command(args, false),
        "trace" => run_command(args, true),
        "spread" => spread_command(args),
        "compare" => compare_command(args),
        "regen-golden" => regen_golden(args),
        "manifest" => args.done().map(|()| {
            print!("{}", manifest());
            0
        }),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            2
        }
    }
}
