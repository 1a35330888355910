//! Explainability tour: LIME word importances (the paper's Figure 5) and
//! attention-score analysis (Figure 6) for EMBA vs JointBERT on the
//! CompactFlash case study.
//!
//! ```sh
//! cargo run --release --example explain_match
//! ```

use emba::core::{
    train_single, ExperimentConfig, ModelKind, PretrainCache, TrainConfig, TrainedMatcher, Trainer,
};
use emba::datagen::{build, DatasetId, Record, Scale, WdcCategory, WdcSize};
use emba::explain::{analyze, explain, render_attention, render_lime, LimeConfig, Style};

fn train(kind: ModelKind) -> TrainedMatcher {
    let dataset = build(
        DatasetId::Wdc(WdcCategory::Computers, WdcSize::Medium),
        Scale(0.015),
        11,
    );
    let cfg = ExperimentConfig {
        vocab_size: 1024,
        max_len: 64,
        train: TrainConfig {
            epochs: 8,
            batch_size: 8,
            lr: 1e-3,
            patience: 4,
            ..TrainConfig::default()
        },
        mlm_epochs: 6,
        runs: 1,
        ..ExperimentConfig::default()
    };
    let (trained, report) =
        train_single(kind, &dataset, &cfg, 3, &mut PretrainCache::new(), &mut Trainer::quiet())
            .expect("a trainer without a store performs no I/O");
    println!(
        "trained {} — test F1 {:.1}",
        trained.model.name(),
        100.0 * report.test.matching.f1
    );
    trained
}

fn main() {
    // The paper's case study: same-spec CompactFlash cards from different
    // brands — a non-match whose surface overlap fools [CLS]-based models.
    let entity1 = Record::new(vec![(
        "title",
        "sandisk sdcfh-004g-a11 dfm 4gb 50p cf compactflash card ultra 30mb/s 100x retail",
    )]);
    let entity2 = Record::new(vec![(
        "title",
        "transcend ts4gcf300 bri 4gb 50p cf compactflash card 300x retail",
    )]);

    for kind in [ModelKind::JointBert, ModelKind::Emba] {
        println!("\n================ {} ================", kind.name());
        let trained = train(kind);

        // ----- Figure 5: LIME explanation -------------------------------
        let lime = explain(
            &trained,
            &entity1,
            &entity2,
            &LimeConfig {
                samples: 150,
                ..LimeConfig::default()
            },
        );
        println!("\nLIME explanation (word[++] pushes toward match, word[--] toward non-match):");
        print!("{}", render_lime(&lime, Style::Plain));
        println!(
            "strongest non-match signals: {:?}",
            lime.top_nonmatch(3)
                .iter()
                .map(|w| w.word.as_str())
                .collect::<Vec<_>>()
        );

        // ----- Figure 6: attention analysis -----------------------------
        let analysis = analyze(&trained, &entity1, &entity2);
        if let Some(scores) = &analysis.attention {
            println!("\nattention received per word (last encoder layer, heads summed):");
            print!("{}", render_attention(scores, Style::Plain));
        }
        if let Some(gamma) = &analysis.gamma {
            println!("\nEMBA AOA γ — importance of each RECORD1 word for the match decision:");
            print!("{}", render_attention(gamma, Style::Plain));
        }
        println!(
            "\nprediction: match probability {:.3} (ground truth: NON-match)",
            analysis.prediction.prob
        );
    }
}
