//! Runners regenerating each of the paper's tables and figures.

use std::collections::HashMap;

use emba_core::{
    run_experiment, stats, train_single, ExperimentResult, ModelKind, PretrainCache, Trainer,
};
use emba_datagen::{
    build, dataset_stats, downsample_positives, DatasetId, Record, WdcCategory, WdcSize,
    TABLE6_RATIOS,
};
use emba_explain::{analyze, explain, render_attention, render_lime, LimeConfig, Style};
use serde::Serialize;

use crate::profile::Profile;
use crate::render::{pct, pct_pm, Table};

/// A rendered experiment: human-readable text plus a JSON value for
/// `EXPERIMENTS.md` and regression checking.
pub struct Artifact {
    /// Report identifier (`table1` ... `figure6`).
    pub id: &'static str,
    /// Rendered text.
    pub text: String,
    /// Machine-readable results.
    pub json: serde_json::Value,
}

impl Artifact {
    fn new<T: Serialize>(id: &'static str, text: String, value: &T) -> Self {
        Self {
            id,
            text,
            json: serde_json::to_value(value).expect("serializable artifact"),
        }
    }
}

// ----- Table 1: dataset statistics -------------------------------------------------

/// Regenerates Table 1: per-dataset statistics (pairs, LRID, classes, test
/// size) for every benchmark at the profile's scale.
pub fn table1(profile: &Profile) -> Artifact {
    let mut table = Table::new(
        format!("Table 1 — dataset statistics (scale {})", profile.scale.0),
        &["dataset", "#pos", "#neg", "LRID", "#classes", "#test"],
    );
    let mut rows = Vec::new();
    for id in DatasetId::all() {
        let ds = build(id, profile.scale_for(id), profile.seed);
        let s = dataset_stats(&ds);
        table.row(vec![
            s.name.clone(),
            s.pos_pairs.to_string(),
            s.neg_pairs.to_string(),
            format!("{:.3}", s.lrid),
            s.classes.to_string(),
            s.test_size.to_string(),
        ]);
        rows.push(s);
    }
    Artifact::new("table1", table.render(), &rows)
}

// ----- Tables 2 + 3: main comparison ------------------------------------------------

/// All experiment cells for Tables 2 and 3: `results[dataset][model]`.
pub fn table2_data(profile: &Profile) -> Vec<Vec<ExperimentResult>> {
    run_grid(profile, &profile.table2_datasets, &ModelKind::table2())
}

/// All experiment cells for Tables 4 and 5.
pub fn table4_data(profile: &Profile) -> Vec<Vec<ExperimentResult>> {
    run_grid(profile, &profile.table4_datasets, &ModelKind::table4())
}

fn run_grid(
    profile: &Profile,
    datasets: &[DatasetId],
    models: &[ModelKind],
) -> Vec<Vec<ExperimentResult>> {
    let mut all = Vec::new();
    for &id in datasets {
        let ds = build(id, profile.scale_for(id), profile.seed);
        let mut cache = PretrainCache::new();
        let mut row = Vec::new();
        for &kind in models {
            eprintln!("[grid] {} on {} ...", kind.name(), ds.name);
            row.push(run_experiment(kind, &ds, &profile.cfg, &mut cache));
        }
        all.push(row);
    }
    all
}

/// Renders Table 2 (EM F1 with EMBA-vs-JointBERT significance stars) from
/// grid results.
pub fn render_table2(results: &[Vec<ExperimentResult>]) -> Artifact {
    let models = ModelKind::table2();
    let mut headers: Vec<&str> = vec!["dataset"];
    headers.extend(models.iter().map(|m| m.name()));
    let mut table = Table::new("Table 2 — EM F1 (mean(±std), * = t-test vs JointBERT)", &headers);
    for row in results {
        let by_model: HashMap<&str, &ExperimentResult> =
            row.iter().map(|r| (r.model.as_str(), r)).collect();
        let jb = by_model.get("JointBERT");
        let mut cells = vec![row[0].dataset.clone()];
        for m in &models {
            let r = by_model[m.name()];
            let mut cell = pct_pm(r.f1_mean, r.f1_std);
            if m.name() == "EMBA" {
                if let Some(jb) = jb {
                    if r.f1_runs.len() >= 2 && jb.f1_runs.len() >= 2 {
                        let t = stats::welch_one_tailed(&r.f1_runs, &jb.f1_runs);
                        cell.push_str(t.stars());
                    }
                }
            }
            cells.push(cell);
        }
        table.row(cells);
    }
    Artifact::new("table2", table.render(), &results)
}

/// Renders Table 3 (entity-ID Acc1/Acc2/F1 for the multi-task models) from
/// the same grid results as Table 2.
pub fn render_table3(results: &[Vec<ExperimentResult>]) -> Artifact {
    let multitask = ["JointBERT", "EMBA", "EMBA (SB)", "EMBA (DB)", "EMBA (FT)"];
    let mut headers: Vec<String> = vec!["dataset".into()];
    for m in multitask {
        headers.push(format!("{m} acc1"));
        headers.push(format!("{m} acc2"));
        headers.push(format!("{m} F1"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new("Table 3 — entity-ID prediction (Acc / Acc / F1)", &header_refs);
    for row in results {
        let by_model: HashMap<&str, &ExperimentResult> =
            row.iter().map(|r| (r.model.as_str(), r)).collect();
        let mut cells = vec![row[0].dataset.clone()];
        for m in multitask {
            match by_model.get(m) {
                Some(r) => {
                    cells.push(r.id_acc1.map_or("-".into(), pct));
                    cells.push(r.id_acc2.map_or("-".into(), pct));
                    cells.push(r.id_f1.map_or("-".into(), pct));
                }
                None => {
                    cells.extend(["-".to_string(), "-".to_string(), "-".to_string()]);
                }
            }
        }
        table.row(cells);
    }
    Artifact::new("table3", table.render(), &results)
}

/// Renders Table 4 (ablation EM F1).
pub fn render_table4(results: &[Vec<ExperimentResult>]) -> Artifact {
    let models = ModelKind::table4();
    let mut headers: Vec<&str> = vec!["dataset"];
    headers.extend(models.iter().map(|m| m.name()));
    let mut table = Table::new("Table 4 — ablation study, EM F1", &headers);
    for row in results {
        let by_model: HashMap<&str, &ExperimentResult> =
            row.iter().map(|r| (r.model.as_str(), r)).collect();
        let mut cells = vec![row[0].dataset.clone()];
        for m in &models {
            cells.push(pct(by_model[m.name()].f1_mean));
        }
        table.row(cells);
    }
    Artifact::new("table4", table.render(), &results)
}

/// Renders Table 5 (ablation entity-ID metrics).
pub fn render_table5(results: &[Vec<ExperimentResult>]) -> Artifact {
    let models = ["JointBERT-S", "JointBERT-T", "JointBERT-CT"];
    let mut headers: Vec<String> = vec!["dataset".into()];
    for m in models {
        headers.push(format!("{m} acc1"));
        headers.push(format!("{m} acc2"));
        headers.push(format!("{m} F1"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Table 5 — entity-ID prediction of the token-representation ablations",
        &header_refs,
    );
    for row in results {
        let by_model: HashMap<&str, &ExperimentResult> =
            row.iter().map(|r| (r.model.as_str(), r)).collect();
        let mut cells = vec![row[0].dataset.clone()];
        for m in models {
            match by_model.get(m) {
                Some(r) => {
                    cells.push(r.id_acc1.map_or("-".into(), pct));
                    cells.push(r.id_acc2.map_or("-".into(), pct));
                    cells.push(r.id_f1.map_or("-".into(), pct));
                }
                None => cells.extend(["-".to_string(), "-".to_string(), "-".to_string()]),
            }
        }
        table.row(cells);
    }
    Artifact::new("table5", table.render(), &results)
}

// ----- Table 6: imbalance ----------------------------------------------------------

/// Regenerates Table 6: EM F1 under positive-class downsampling of the WDC
/// computers xlarge analog.
pub fn table6(profile: &Profile) -> Artifact {
    let models = [
        ModelKind::JointBert,
        ModelKind::Emba,
        ModelKind::EmbaSb,
        ModelKind::Bert,
        ModelKind::Ditto,
    ];
    let base = build(
        DatasetId::Wdc(WdcCategory::Computers, WdcSize::Xlarge),
        profile.scale_for(DatasetId::Wdc(WdcCategory::Computers, WdcSize::Xlarge)),
        profile.seed,
    );

    // Baseline F1 on the unmodified dataset, then each downsampled ratio.
    let mut headers: Vec<&str> = vec!["pos/neg ratio"];
    headers.extend(models.iter().map(|m| m.name()));
    let mut table = Table::new(
        "Table 6 — F1 under positive downsampling (Δ vs untouched dataset)",
        &headers,
    );

    #[derive(Serialize)]
    struct Row {
        ratio: f64,
        f1: Vec<(String, f64, f64)>, // (model, f1, delta)
    }
    let mut json_rows = Vec::new();

    let mut cache = PretrainCache::new();
    let mut baseline = HashMap::new();
    {
        let mut cells = vec!["original".to_string()];
        for &m in &models {
            eprintln!("[table6] {} baseline ...", m.name());
            let r = run_experiment(m, &base, &profile.cfg, &mut cache);
            cells.push(pct(r.f1_mean));
            baseline.insert(m.name(), r.f1_mean);
        }
        table.row(cells);
    }

    let (pos, neg) = base.train_balance();
    let current_ratio = pos as f64 / neg.max(1) as f64;
    for &ratio in &TABLE6_RATIOS {
        if ratio >= current_ratio {
            continue; // quick-profile datasets can start below a target ratio
        }
        let ds = downsample_positives(&base, ratio, profile.seed);
        let mut cache = PretrainCache::new();
        let mut cells = vec![format!("{ratio:.3}")];
        let mut row = Row {
            ratio,
            f1: Vec::new(),
        };
        for &m in &models {
            eprintln!("[table6] {} at ratio {ratio} ...", m.name());
            let r = run_experiment(m, &ds, &profile.cfg, &mut cache);
            let delta = r.f1_mean - baseline[m.name()];
            cells.push(format!("{} ({:+.1})", pct(r.f1_mean), 100.0 * delta));
            row.f1.push((m.name().to_string(), r.f1_mean, delta));
        }
        table.row(cells);
        json_rows.push(row);
    }
    Artifact::new("table6", table.render(), &json_rows)
}

// ----- Table 7: computational efficiency --------------------------------------------

/// Regenerates Table 7: training and inference throughput (pairs/second)
/// for every model on a shared dataset.
pub fn table7(profile: &Profile) -> Artifact {
    let ds = build(
        DatasetId::Wdc(WdcCategory::Computers, WdcSize::Medium),
        profile.scale_for(DatasetId::Wdc(WdcCategory::Computers, WdcSize::Medium)),
        profile.seed,
    );
    let mut cfg = profile.cfg.clone();
    cfg.runs = 1;
    cfg.train.epochs = cfg.train.epochs.min(3); // throughput, not accuracy
    cfg.mlm_epochs = 0;

    let mut table = Table::new(
        "Table 7 — computational efficiency (pairs/second)",
        &["model", "training", "inference"],
    );
    #[derive(Serialize)]
    struct Row {
        model: String,
        train_pps: f64,
        infer_pps: f64,
    }
    let mut rows = Vec::new();
    let mut cache = PretrainCache::new();
    for kind in ModelKind::table2() {
        eprintln!("[table7] {} ...", kind.name());
        let r = run_experiment(kind, &ds, &cfg, &mut cache);
        table.row(vec![
            r.model.clone(),
            format!("{:.0}", r.train_pairs_per_sec),
            format!("{:.0}", r.infer_pairs_per_sec),
        ]);
        rows.push(Row {
            model: r.model,
            train_pps: r.train_pairs_per_sec,
            infer_pps: r.infer_pairs_per_sec,
        });
    }
    Artifact::new("table7", table.render(), &rows)
}

// ----- Figures 5 and 6: the case study ----------------------------------------------

/// The paper's CompactFlash case-study pair (a true non-match).
pub fn case_study_pair() -> (Record, Record) {
    (
        Record::new(vec![(
            "title",
            "sandisk sdcfh-004g-a11 dfm 4gb 50p cf compactflash card ultra 30mb/s 100x retail",
        )]),
        Record::new(vec![(
            "title",
            "transcend ts4gcf300 bri 4gb 50p cf compactflash card 300x retail",
        )]),
    )
}

fn case_study_models(profile: &Profile) -> Vec<(ModelKind, emba_core::TrainedMatcher)> {
    let ds = build(
        DatasetId::Wdc(WdcCategory::Computers, WdcSize::Medium),
        profile.scale_for(DatasetId::Wdc(WdcCategory::Computers, WdcSize::Medium)),
        profile.seed,
    );
    [ModelKind::JointBert, ModelKind::Emba]
        .into_iter()
        .map(|kind| {
            eprintln!("[case-study] training {} ...", kind.name());
            let cache = &mut PretrainCache::new();
            let (m, _) =
                train_single(kind, &ds, &profile.cfg, profile.seed, cache, &mut Trainer::quiet())
                    .expect("a trainer without a store performs no I/O");
            (kind, m)
        })
        .collect()
}

/// Regenerates Figure 5: LIME explanations of the case-study pair for
/// JointBERT and EMBA.
pub fn figure5(profile: &Profile) -> Artifact {
    let (left, right) = case_study_pair();
    let mut text = String::from("Figure 5 — LIME explanations (case study: sandisk vs transcend)\n");
    #[derive(Serialize)]
    struct Row {
        model: String,
        prob: f64,
        words: Vec<(String, f64)>,
    }
    let mut rows = Vec::new();
    for (kind, trained) in case_study_models(profile) {
        let lime = explain(
            &trained,
            &left,
            &right,
            &LimeConfig {
                samples: 120,
                seed: profile.seed,
                ..LimeConfig::default()
            },
        );
        text.push_str(&format!("\n--- {} ---\n", kind.name()));
        text.push_str(&render_lime(&lime, Style::Plain));
        rows.push(Row {
            model: kind.name().to_string(),
            prob: lime.base_prob,
            words: lime
                .words
                .iter()
                .map(|w| (w.word.clone(), w.weight))
                .collect(),
        });
    }
    Artifact::new("figure5", text, &rows)
}

/// Regenerates Figure 6: attention-score visualization of the case-study
/// pair for JointBERT and EMBA.
pub fn figure6(profile: &Profile) -> Artifact {
    let (left, right) = case_study_pair();
    let mut text = String::from("Figure 6 — attention visualization (case study)\n");
    #[derive(Serialize)]
    struct Row {
        model: String,
        prob: f64,
        attention: Vec<(String, f64)>,
        gamma: Vec<(String, f64)>,
    }
    let mut rows = Vec::new();
    for (kind, trained) in case_study_models(profile) {
        let analysis = analyze(&trained, &left, &right);
        text.push_str(&format!(
            "\n--- {} (match prob {:.3}; truth: non-match) ---\n",
            kind.name(),
            analysis.prediction.prob
        ));
        let mut row = Row {
            model: kind.name().to_string(),
            prob: analysis.prediction.prob,
            attention: Vec::new(),
            gamma: Vec::new(),
        };
        if let Some(scores) = &analysis.attention {
            text.push_str("attention received per word:\n");
            text.push_str(&render_attention(scores, Style::Plain));
            row.attention = scores.iter().map(|w| (w.word.clone(), w.score)).collect();
        }
        if let Some(gamma) = &analysis.gamma {
            text.push_str("AOA γ over RECORD1 words:\n");
            text.push_str(&render_attention(gamma, Style::Plain));
            row.gamma = gamma.iter().map(|w| (w.word.clone(), w.score)).collect();
        }
        rows.push(row);
    }
    Artifact::new("figure6", text, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emba_datagen::Scale;

    // Smoke-profile runs of the cheap artifacts; the expensive grids are
    // covered by the `reproduce` binary itself.
    #[test]
    fn table1_lists_all_dataset_rows() {
        let mut p = Profile::smoke();
        p.scale = Scale::TEST;
        let a = table1(&p);
        assert_eq!(a.id, "table1");
        assert!(a.text.contains("wdc-computers-small"));
        assert!(a.text.contains("dblp-scholar"));
        assert_eq!(a.json.as_array().unwrap().len(), 22);
    }

    #[test]
    fn case_study_pair_matches_the_paper() {
        let (l, r) = case_study_pair();
        assert!(l.text().contains("sandisk"));
        assert!(r.text().contains("transcend"));
        assert!(l.text().contains("compactflash") && r.text().contains("compactflash"));
    }
}
