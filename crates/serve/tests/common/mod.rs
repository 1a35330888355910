//! Fixtures shared by the serve integration tests.
#![allow(dead_code)] // each test binary uses its own subset

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

use emba_core::{Checkpoint, ModelKind, PipelineConfig, TextPipeline, TrainedMatcher};
use emba_datagen::Record;
use emba_serve::{RecoverySource, ServeConfig, ServeCore};
use emba_tokenizer::{TrainConfig, WordPieceTokenizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

/// Injected flush panics are expected noise in these suites; silence the
/// default panic report for the serving thread (and only that thread) so
/// test output stays readable. `catch_unwind` behavior is unaffected.
pub fn quiet_serve_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if std::thread::current().name() != Some("emba-serve") {
                default(info);
            }
        }));
    });
}

/// An untrained matcher over the given corpus — flush policy, accounting,
/// and the split-vs-joint equivalence are all architectural, so random
/// weights exercise exactly what trained weights would.
pub fn matcher_over(kind: ModelKind, records: &[Record], max_len: usize) -> TrainedMatcher {
    let corpus: Vec<String> = records.iter().map(|r| r.text()).collect();
    let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
    let tok = WordPieceTokenizer::train(
        &refs,
        &TrainConfig {
            vocab_size: 512,
            min_pair_freq: 2,
        },
    );
    let pipeline = TextPipeline::from_tokenizer(
        tok,
        PipelineConfig {
            vocab_size: 512,
            max_len,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(5);
    let model = kind.build(&pipeline, 4, 0.5, 0.1, &mut rng);
    TrainedMatcher {
        pipeline,
        model,
        dropout: 0.1,
        pos_fraction: 0.5,
    }
}

/// A random product-ish record from one generator seed.
pub fn record_from_seed(seed: u64) -> Record {
    const WORDS: &[&str] = &[
        "samsung", "sandisk", "evo", "ultra", "ssd", "card", "128gb", "1tb", "sata", "nvme", "pro",
        "extreme", "drive", "internal", "memory", "retail",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..8);
    let title: Vec<&str> = (0..n)
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
        .collect();
    Record::new(vec![
        ("title", title.join(" ")),
        ("code", format!("mz{}", rng.gen_range(100..9999))),
    ])
}

pub fn records(n: u64) -> Vec<Record> {
    (0..n).map(record_from_seed).collect()
}

/// An EMBA (FT) checkpoint over `recs`: the backbone whose standalone record
/// encodings factorize exactly out of the joint pass, with `max_len` long
/// enough that no fixture record is truncated.
pub fn checkpoint_over(recs: &[Record]) -> Checkpoint {
    Checkpoint::capture(
        &matcher_over(ModelKind::EmbaFt, recs, 128),
        ModelKind::EmbaFt,
        4,
    )
}

/// A core with its own checkpoint retained as the recovery source, so
/// supervision tests can heal it in place.
pub fn recoverable_core(recs: &[Record], cfg: ServeConfig) -> ServeCore {
    let ckpt = checkpoint_over(recs);
    let trained = ckpt.restore().expect("checkpoint restores");
    let mut core = ServeCore::new(trained, cfg).expect("EmbaFt has the split scoring path");
    core.set_recovery(RecoverySource::Checkpoint(Box::new(ckpt)));
    core
}

/// A scratch directory unique to each test case, removed on drop.
pub struct TempDir(pub PathBuf);
impl TempDir {
    pub fn new() -> Self {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "emba-serve-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Lines of a JSONL event log, counted by their `"event"` tag.
pub fn events_by_name(log: &Path) -> HashMap<String, u64> {
    let mut by_name = HashMap::new();
    for line in std::fs::read_to_string(log).expect("event log written").lines() {
        let v: Value = serde_json::from_str(line).expect("event log line is JSON");
        let name = v.get("event").and_then(Value::as_str).expect("tagged event");
        *by_name.entry(name.to_string()).or_insert(0) += 1;
    }
    by_name
}

/// One blocking HTTP GET against the telemetry server; returns (status,
/// body).
pub fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("telemetry endpoint accepts");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: telemetry\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("response is UTF-8");
    let status: u16 = buf
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {buf:?}"));
    let body = buf
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}
