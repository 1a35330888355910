//! The committed correctness oracle: f32 match probabilities of 256 evenly
//! spaced candidate pairs per catalog workload and seed, as computed at the
//! commit that last ran `regen-golden`.
//!
//! A later change that alters kernels, batching or the scoring path must
//! reproduce them within [`TOLERANCE`] (room for FMA and summation-order
//! differences, far below any decision change). Seeds without a committed
//! file skip this check and keep the in-run cross-path checks.

use std::fs;
use std::path::{Path, PathBuf};

use emba_core::ScoredPair;
use serde_json::Value;

use crate::registry::Workload;
use crate::setup::Ledger;
use crate::{object, text};

/// Largest accepted |probability - golden|.
pub const TOLERANCE: f64 = 1e-4;
/// Pairs sampled per file.
pub const SAMPLES: usize = 256;
/// Seeds with committed golden files: the default seed and one other.
pub const SEEDS: [u64; 2] = [1, 2];

/// The benchmark's own directory: `benchmark/` under the current directory
/// when run from the repository root (the driver and `cargo run`), the
/// current directory itself under `cargo test`.
pub fn bench_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark")
    } else if Path::new("golden").is_dir() && Path::new("Cargo.toml").exists() {
        PathBuf::from(".")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// Where the golden file of a workload and seed lives.
pub fn path(workload: Workload, seed: u64) -> PathBuf {
    bench_dir()
        .join("golden")
        .join(format!("probs_{}_seed{seed}.json", workload.name()))
}

/// Evenly spaced sample positions into a list of `len` scored pairs.
fn positions(len: usize) -> Vec<usize> {
    let n = SAMPLES.min(len);
    (0..n).map(|k| k * len / n).collect()
}

/// The golden document for a scored candidate list.
pub fn document(workload: Workload, seed: u64, scored: &[ScoredPair]) -> String {
    let pairs = positions(scored.len())
        .into_iter()
        .map(|k| {
            let p = scored[k];
            Value::Array(vec![
                Value::UInt(p.i as u64),
                Value::UInt(p.j as u64),
                Value::Float(f64::from(p.prob)),
            ])
        })
        .collect();
    let doc = object([
        ("workload", text(workload.name())),
        ("seed", Value::UInt(seed)),
        ("scored_pairs", Value::UInt(scored.len() as u64)),
        ("tolerance", Value::Float(TOLERANCE)),
        ("pairs", Value::Array(pairs)),
    ]);
    serde_json::to_string_pretty(&doc).expect("a Value tree always serializes") + "\n"
}

/// Checks a run's f32 probabilities against the committed file, if there is
/// one for this seed. Returns whether a file was found.
pub fn check(
    workload: Workload,
    seed: u64,
    scored: &[ScoredPair],
    ledger: &mut Ledger,
) -> Result<bool, String> {
    let file = path(workload, seed);
    let Ok(text) = fs::read_to_string(&file) else {
        return Ok(false);
    };
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", file.display()))?;
    let pairs = doc
        .get("pairs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no pairs array", file.display()))?;
    let total = doc.get("scored_pairs").and_then(Value::as_u64).unwrap_or(0) as usize;
    ledger.check(total == scored.len(), || {
        format!(
            "golden expects {total} scored pairs, the run scored {}",
            scored.len()
        )
    });
    for (entry, k) in pairs.iter().zip(positions(total)) {
        let want = (
            entry.get_index(0).and_then(Value::as_u64),
            entry.get_index(1).and_then(Value::as_u64),
            entry.get_index(2).and_then(Value::as_f64),
        );
        let (Some(i), Some(j), Some(prob)) = want else {
            return Err(format!("{}: malformed pair entry", file.display()));
        };
        let got = scored.get(k);
        let ok = got.is_some_and(|p| {
            p.i as u64 == i && p.j as u64 == j && (f64::from(p.prob) - prob).abs() <= TOLERANCE
        });
        ledger.check(ok, || {
            format!("golden pair ({i},{j}) = {prob}, run gave {got:?}")
        });
    }
    Ok(true)
}
