//! LIME explanations for matching decisions, following the Mojito recipe
//! the paper uses (Di Cicco et al., 2019; Ribeiro et al., 2016).
//!
//! Both records' descriptions are perturbed by randomly dropping words, the
//! model scores every perturbed pair in one `predict_batch` call, and a
//! ridge-regularized, locality-weighted linear regression is fitted over the
//! keep/drop indicator features. The resulting coefficients are the per-word
//! importances: positive pushes toward *match*, negative toward
//! *non-match* (Figure 5's blue/orange words).

use emba_core::TrainedMatcher;
use emba_datagen::Record;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::align::Side;

/// LIME settings.
#[derive(Debug, Clone, Copy)]
pub struct LimeConfig {
    /// Number of perturbed samples (the first is always the unperturbed
    /// pair).
    pub samples: usize,
    /// Kernel width for the locality weights `exp(-d² / width²)`, where `d`
    /// is the fraction of dropped words.
    pub kernel_width: f64,
    /// Ridge regularization strength.
    pub ridge: f64,
    /// Perturbation seed.
    pub seed: u64,
}

impl Default for LimeConfig {
    fn default() -> Self {
        Self {
            samples: 200,
            kernel_width: 0.5,
            ridge: 1e-3,
            seed: 0,
        }
    }
}

/// One word's contribution to the matching decision.
#[derive(Debug, Clone, PartialEq)]
pub struct WordWeight {
    /// The surface word.
    pub word: String,
    /// Which record it appears in.
    pub side: Side,
    /// Regression coefficient: positive → pushes toward match.
    pub weight: f64,
}

/// A fitted LIME explanation.
#[derive(Debug, Clone)]
pub struct LimeExplanation {
    /// Match probability of the unperturbed pair.
    pub base_prob: f64,
    /// Per-word weights in record order (RECORD1 words first).
    pub words: Vec<WordWeight>,
}

impl LimeExplanation {
    /// Words sorted by signed weight, strongest match-signal first.
    pub fn ranked(&self) -> Vec<&WordWeight> {
        let mut v: Vec<&WordWeight> = self.words.iter().collect();
        v.sort_by(|a, b| b.weight.partial_cmp(&a.weight).expect("finite weights"));
        v
    }

    /// The strongest non-match signals (most negative weights first).
    pub fn top_nonmatch(&self, k: usize) -> Vec<&WordWeight> {
        let mut v = self.ranked();
        v.reverse();
        v.truncate(k);
        v
    }
}

/// Explains one matching decision.
///
/// # Panics
///
/// Panics if both records are empty of words or `cfg.samples == 0`.
pub fn explain(matcher: &TrainedMatcher, left: &Record, right: &Record, cfg: &LimeConfig) -> LimeExplanation {
    assert!(cfg.samples > 0, "LIME needs at least one sample");
    // Feature space: every word occurrence across both records.
    let features = collect_words(left, right);
    let n_feats = features.len();
    assert!(n_feats > 0, "cannot explain a pair with no words");

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let masks: Vec<Vec<bool>> = (0..cfg.samples)
        .map(|s| {
            if s == 0 {
                return vec![true; n_feats];
            }
            // Drop each word independently; keep at least one per record.
            let mut m: Vec<bool> = (0..n_feats).map(|_| rng.gen_bool(0.7)).collect();
            ensure_one_kept(&features, &mut m, Side::Left);
            ensure_one_kept(&features, &mut m, Side::Right);
            m
        })
        .collect();

    // The unperturbed pair and every perturbation, scored in one call.
    let perturbed: Vec<(Record, Record)> =
        masks.iter().map(|mask| apply_mask(left, right, &features, mask)).collect();
    let pairs: Vec<(&Record, &Record)> =
        std::iter::once((left, right)).chain(perturbed.iter().map(|(l, r)| (l, r))).collect();
    let probs: Vec<f64> = matcher.predict_batch(&pairs).iter().map(|p| p.prob).collect();
    let (base_prob, ys) = (probs[0], &probs[1..]);

    let (xs, weights): (Vec<Vec<f64>>, Vec<f64>) = masks
        .iter()
        .map(|mask| {
            let dropped = mask.iter().filter(|&&k| !k).count() as f64 / n_feats as f64;
            let pi = (-dropped * dropped / (cfg.kernel_width * cfg.kernel_width)).exp();
            (mask.iter().map(|&k| f64::from(u8::from(k))).collect(), pi)
        })
        .unzip();

    let coefs = weighted_ridge(&xs, ys, &weights, cfg.ridge);
    LimeExplanation {
        base_prob,
        words: features
            .into_iter()
            .zip(coefs)
            .map(|((word, side, _, _), weight)| WordWeight { word, side, weight })
            .collect(),
    }
}

/// `(word, side, attr index, word index within attr)` for every word.
type Feature = (String, Side, usize, usize);

fn collect_words(left: &Record, right: &Record) -> Vec<Feature> {
    let mut out = Vec::new();
    for (side, rec) in [(Side::Left, left), (Side::Right, right)] {
        for (ai, (_, value)) in rec.attrs.iter().enumerate() {
            for (wi, w) in value.split_whitespace().enumerate() {
                out.push((w.to_lowercase(), side, ai, wi));
            }
        }
    }
    out
}

fn ensure_one_kept(features: &[Feature], mask: &mut [bool], side: Side) {
    let idxs: Vec<usize> = features
        .iter()
        .enumerate()
        .filter(|(_, f)| f.1 == side)
        .map(|(i, _)| i)
        .collect();
    if !idxs.is_empty() && idxs.iter().all(|&i| !mask[i]) {
        mask[idxs[0]] = true;
    }
}

fn apply_mask(left: &Record, right: &Record, features: &[Feature], mask: &[bool]) -> (Record, Record) {
    let rebuild = |rec: &Record, side: Side| -> Record {
        let attrs = rec
            .attrs
            .iter()
            .enumerate()
            .map(|(ai, (name, value))| {
                let kept: Vec<&str> = value
                    .split_whitespace()
                    .enumerate()
                    .filter(|(wi, _)| {
                        features
                            .iter()
                            .zip(mask)
                            .any(|(f, &keep)| keep && f.1 == side && f.2 == ai && f.3 == *wi)
                    })
                    .map(|(_, w)| w)
                    .collect();
                (name.clone(), kept.join(" "))
            })
            .collect();
        Record { attrs }
    };
    (rebuild(left, Side::Left), rebuild(right, Side::Right))
}

/// Solves the locality-weighted ridge regression
/// `(XᵀΠX + λI) β = XᵀΠ y` by Gaussian elimination with partial pivoting.
/// A bias column is appended internally and its coefficient discarded.
// The mirror step reads row `b` while writing row `a`; index form beats a
// split_at_mut dance for a d×d matrix this small.
#[allow(clippy::needless_range_loop)]
fn weighted_ridge(xs: &[Vec<f64>], ys: &[f64], weights: &[f64], ridge: f64) -> Vec<f64> {
    let n = xs.len();
    let d = xs[0].len() + 1; // + bias
    let mut ata = vec![vec![0.0f64; d]; d];
    let mut atb = vec![0.0f64; d];
    for i in 0..n {
        let mut row = xs[i].clone();
        row.push(1.0);
        let w = weights[i];
        for a in 0..d {
            atb[a] += w * row[a] * ys[i];
            for b in a..d {
                ata[a][b] += w * row[a] * row[b];
            }
        }
    }
    for a in 0..d {
        for b in 0..a {
            ata[a][b] = ata[b][a];
        }
        ata[a][a] += ridge;
    }
    let beta = solve(ata, atb);
    beta[..d - 1].to_vec()
}

// Elimination updates row `row` from pivot row `col`; same two-rows-at-once
// aliasing as above, so indices stay.
#[allow(clippy::needless_range_loop)]
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).expect("finite"))
            .expect("non-empty");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        if diag.abs() < 1e-12 {
            continue; // singular direction; ridge should prevent this
        }
        for row in col + 1..n {
            let factor = a[row][col] / diag;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = if a[row][row].abs() < 1e-12 {
            0.0
        } else {
            acc / a[row][row]
        };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ridge_recovers_a_planted_linear_model() {
        // y = 2*x0 - 1*x1 + 0.5 (bias), equal weights.
        let mut rng = StdRng::seed_from_u64(0);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..200 {
            let x0 = f64::from(rng.gen::<bool>() as u8);
            let x1 = f64::from(rng.gen::<bool>() as u8);
            xs.push(vec![x0, x1]);
            ys.push(2.0 * x0 - 1.0 * x1 + 0.5);
        }
        let w = vec![1.0; 200];
        let beta = weighted_ridge(&xs, &ys, &w, 1e-6);
        assert!((beta[0] - 2.0).abs() < 1e-3, "{beta:?}");
        assert!((beta[1] + 1.0).abs() < 1e-3, "{beta:?}");
    }

    #[test]
    fn locality_weights_downweight_far_samples() {
        // Two populations disagree on the coefficient; the near (high
        // weight) one must dominate.
        let xs = vec![vec![1.0], vec![0.0], vec![1.0], vec![0.0]];
        let ys = vec![1.0, 0.0, -1.0, 0.0];
        let w_near = vec![1.0, 1.0, 1e-6, 1e-6];
        let beta = weighted_ridge(&xs, &ys, &w_near, 1e-9);
        assert!(beta[0] > 0.9, "{beta:?}");
    }

    #[test]
    fn solve_handles_permuted_systems() {
        // Requires pivoting: leading zero.
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let b = vec![3.0, 5.0];
        let x = solve(a, b);
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn collect_words_covers_both_records() {
        let l = Record::new(vec![("title", "sandisk ultra card")]);
        let r = Record::new(vec![("title", "transcend card")]);
        let feats = collect_words(&l, &r);
        assert_eq!(feats.len(), 5);
        assert_eq!(feats.iter().filter(|f| f.1 == Side::Left).count(), 3);
    }

    #[test]
    fn apply_mask_drops_exactly_the_masked_words() {
        let l = Record::new(vec![("title", "alpha beta gamma")]);
        let r = Record::new(vec![("title", "delta")]);
        let feats = collect_words(&l, &r);
        let mask = vec![true, false, true, true];
        let (l2, r2) = apply_mask(&l, &r, &feats, &mask);
        assert_eq!(l2.get("title"), Some("alpha gamma"));
        assert_eq!(r2.get("title"), Some("delta"));
    }
}
