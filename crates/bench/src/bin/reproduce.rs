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
use std::str::FromStr;

use emba_bench::{
    figure5, figure6, render_table2, render_table3, render_table4, render_table5, table1,
    table2_data, table4_data, table6, table7, Artifact, Profile,
};

/// The paper's nine artifacts; `all` (or no target) selects every one.
const TARGETS: [&str; 9] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "figure5", "figure6",
];

/// Options, each followed by one value.
const FLAGS: [&str; 6] = [
    "--profile",
    "--runs",
    "--epochs",
    "--scale",
    "--datasets",
    "--out",
];

/// Bad command line: say why, list what is valid, exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("valid targets: {} all", TARGETS.join(" "));
    eprintln!(
        "valid options: {} (each takes a value; see --help)",
        FLAGS.join(" ")
    );
    std::process::exit(2);
}

fn parse_value<T: FromStr>(flag: &str, value: &str, what: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} expects {what}, got {value:?}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }

    // Every token is a target from the closed set or an option with its
    // value; anything else ends the run before a dataset is built.
    let mut targets: Vec<&str> = Vec::new();
    let mut options: Vec<(&str, &str)> = Vec::new();
    let mut tokens = args.iter().map(String::as_str);
    while let Some(token) = tokens.next() {
        if token.starts_with('-') {
            if !FLAGS.contains(&token) {
                usage_error(&format!("unknown option {token:?}"));
            }
            match tokens.next() {
                Some(value) if !value.starts_with("--") => options.push((token, value)),
                _ => usage_error(&format!("{token} expects a value")),
            }
        } else if token == "all" || TARGETS.contains(&token) {
            targets.push(token);
        } else {
            usage_error(&format!("unknown target {token:?}"));
        }
    }
    let option = |flag: &str| {
        options
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|&(_, v)| v)
    };

    let mut profile = match option("--profile") {
        Some("smoke") => Profile::smoke(),
        Some("full") => Profile::full(),
        Some("quick") | None => Profile::quick(),
        Some(other) => usage_error(&format!(
            "unknown profile {other:?}; expected smoke|quick|full"
        )),
    };
    if let Some(runs) = option("--runs") {
        profile.cfg.runs = parse_value("--runs", runs, "an integer");
    }
    if let Some(epochs) = option("--epochs") {
        profile.cfg.train.epochs = parse_value("--epochs", epochs, "an integer");
    }
    if let Some(scale) = option("--scale") {
        profile.scale = emba_datagen::Scale(parse_value("--scale", scale, "a float"));
    }
    if let Some(names) = option("--datasets") {
        let resolve = |name: &str| {
            emba_datagen::DatasetId::all()
                .into_iter()
                .find(|id| id.name() == name)
                .unwrap_or_else(|| {
                    usage_error(&format!(
                        "unknown dataset {name:?}; expected e.g. wdc-computers-small"
                    ))
                })
        };
        let ids: Vec<_> = names.split(',').map(resolve).collect();
        profile.table2_datasets = ids.clone();
        profile.table4_datasets = ids;
    }
    let out_dir = PathBuf::from(option("--out").unwrap_or("results"));
    fs::create_dir_all(&out_dir).expect("create output directory");

    let targets: Vec<&str> = if targets.is_empty() || targets.contains(&"all") {
        TARGETS.to_vec()
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
    all      every target above

OPTIONS:
    --profile smoke|quick|full   compute budget (default quick)
    --runs N                     repeated runs per cell
    --epochs N                   fine-tuning epochs
    --scale F                    dataset scale vs Table 1 counts
    --datasets a,b,c             restrict table2-5 dataset rows by name
    --out DIR                    artifact directory (default results/)

Anything else — an unknown target or option, an option without its value —
exits 2 before any work is done."
    );
}
