//! Candidate generation for catalog-scale matching.
//!
//! Scoring every pair of an `n`-record catalog costs `O(n²)` backbone
//! forwards; blocking cuts that to the pairs worth scoring. The index here
//! is the classic inverted index over cheap surface keys: lowercase
//! whitespace tokens plus character q-grams of each record's concatenated
//! text, both hashed to `u64`. Two records become a candidate pair when
//! they share at least [`BlockingConfig::min_shared`] keys; keys whose
//! posting list exceeds [`BlockingConfig::max_posting`] are treated as stop
//! words and generate no candidates (they would otherwise contribute
//! `O(|posting|²)` work and near-zero discriminative signal).
//!
//! Candidates are **canonical**: each unordered pair `(i, j)` is emitted
//! exactly once with `i < j`, and self-pairs never appear. Raising
//! `min_shared` can only shrink the candidate set (each pair's shared-key
//! count is fixed by the index), so the recall/candidate-count tradeoff is
//! monotone in the threshold — a property the tests pin down.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use emba_datagen::Record;

/// Index construction and candidate-emission knobs.
#[derive(Debug, Clone)]
pub struct BlockingConfig {
    /// Character q-gram length.
    pub q: usize,
    /// Minimum shared keys for a pair to become a candidate.
    pub min_shared: usize,
    /// Posting lists longer than this are stop keys: indexed but skipped
    /// during candidate generation.
    pub max_posting: usize,
    /// Index whole lowercase tokens.
    pub use_tokens: bool,
    /// Index character q-grams (catches typos and token splits/joins).
    pub use_qgrams: bool,
}

impl Default for BlockingConfig {
    fn default() -> Self {
        Self {
            q: 4,
            min_shared: 2,
            max_posting: 128,
            use_tokens: true,
            use_qgrams: true,
        }
    }
}

/// FNV-1a over a byte string — the same cheap stable hash the encoding
/// cache uses for record keys.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Salts of token and q-gram keys ("token", "qgram").
const TOKEN_SALT: u64 = 0x746f_6b65_6e00_0000;
const QGRAM_SALT: u64 = 0x7167_7261_6d00_0000;

/// The deduplicated blocking keys of one record: hashed lowercase tokens
/// and hashed character q-grams of [`Record::text`]. Token hashes are
/// salted differently from q-gram hashes so a 1-token string never
/// collides with its own q-gram.
pub fn record_keys(rec: &Record, cfg: &BlockingConfig) -> Vec<u64> {
    let mut text = rec.text();
    if text.is_ascii() {
        text.make_ascii_lowercase();
    } else {
        text = text.to_lowercase();
    }
    let mut keys = Vec::with_capacity(text.len());
    if cfg.use_tokens {
        for tok in text.split_whitespace() {
            keys.push(fnv1a(tok.as_bytes()) ^ TOKEN_SALT);
        }
    }
    if cfg.use_qgrams && cfg.q > 0 {
        // A q-gram is `q` consecutive chars of a token: hash its bytes where
        // they lie, between the byte offsets of its first char and the char
        // after its last (in an ASCII token, every byte is a char).
        let mut bounds = Vec::new();
        for tok in text.split_whitespace() {
            if tok.is_ascii() {
                keys.extend(tok.as_bytes().windows(cfg.q).map(|w| fnv1a(w) ^ QGRAM_SALT));
                continue;
            }
            bounds.clear();
            bounds.extend(tok.char_indices().map(|(at, _)| at));
            bounds.push(tok.len());
            for w in bounds.windows(cfg.q + 1) {
                keys.push(fnv1a(&tok.as_bytes()[w[0]..w[cfg.q]]) ^ QGRAM_SALT);
            }
        }
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Hashes a blocking key to itself: keys are FNV-1a hashes already.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(bytes);
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// An inverted index from blocking key to the records containing it.
#[derive(Debug)]
pub struct BlockingIndex {
    /// Posting lists: records are appended in index order, so every list
    /// is sorted ascending.
    postings: HashMap<u64, Vec<u32>, BuildHasherDefault<KeyHasher>>,
    num_records: usize,
}

impl BlockingIndex {
    /// Indexes every record's [`record_keys`].
    pub fn build(records: &[Record], cfg: &BlockingConfig) -> Self {
        let mut postings: HashMap<u64, Vec<u32>, BuildHasherDefault<KeyHasher>> = HashMap::default();
        for (i, rec) in records.iter().enumerate() {
            for key in record_keys(rec, cfg) {
                postings.entry(key).or_default().push(i as u32);
            }
        }
        Self {
            postings,
            num_records: records.len(),
        }
    }

    /// Number of indexed records.
    pub fn num_records(&self) -> usize {
        self.num_records
    }

    /// Keys whose posting list exceeds `cfg.max_posting` (stop keys).
    pub fn num_stop_keys(&self, cfg: &BlockingConfig) -> usize {
        self.postings.values().filter(|p| p.len() > cfg.max_posting).count()
    }

    /// Emits every canonical candidate pair `(i, j)`, `i < j`, sharing at
    /// least `cfg.min_shared` non-stop keys. Each pair appears exactly
    /// once; self-pairs are impossible (keys are deduplicated per record,
    /// so a record never co-occurs with itself in one posting list).
    pub fn candidates(&self, cfg: &BlockingConfig) -> Vec<(usize, usize)> {
        self.candidates_with_stats(cfg).0
    }

    /// [`BlockingIndex::candidates`] plus memory accounting for the
    /// shared-key merge. The merge runs **per record**: for each record
    /// `i`, one counter per record counts how many non-stop keys `i` shares
    /// with each partner `j > i`, entries below `min_shared` are dropped
    /// when the record is done, and the counters touched are reset for the
    /// next record. Peak live state is therefore one record's distinct
    /// co-candidates (plus the one counter array) — not, as in an earlier
    /// global-map implementation, *every* co-occurring pair in the catalog
    /// including sub-threshold ones, which posting lists just under
    /// `max_posting` (near-stop-words) inflate quadratically.
    pub fn candidates_with_stats(
        &self,
        cfg: &BlockingConfig,
    ) -> (Vec<(usize, usize)>, CandidateStats) {
        // Invert the index once: each record's non-stop posting lists.
        let mut lists_of: Vec<Vec<&[u32]>> = vec![Vec::new(); self.num_records];
        for posting in self.postings.values() {
            if posting.len() > cfg.max_posting {
                continue;
            }
            for &r in posting {
                lists_of[r as usize].push(posting.as_slice());
            }
        }
        let min = cfg.min_shared.max(1) as u32;
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        // Shared-key counts by partner, and the partners counted so far.
        let mut shared = vec![0u32; self.num_records];
        let mut partners: Vec<u32> = Vec::new();
        let mut peak = 0usize;
        for (i, lists) in lists_of.iter().enumerate() {
            let me = i as u32;
            for posting in lists {
                // Posting lists are sorted and hold each record at most
                // once, so partners with j > i are exactly the suffix past
                // this record's own slot.
                let from = posting.partition_point(|&r| r <= me);
                for &j in &posting[from..] {
                    if shared[j as usize] == 0 {
                        partners.push(j);
                    }
                    shared[j as usize] += 1;
                }
            }
            peak = peak.max(partners.len());
            for j in partners.drain(..) {
                if std::mem::take(&mut shared[j as usize]) >= min {
                    pairs.push((i, j as usize));
                }
            }
        }
        pairs.sort_unstable();
        (pairs, CandidateStats { peak_intermediate: peak })
    }
}

/// Memory accounting from [`BlockingIndex::candidates_with_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateStats {
    /// Largest number of shared-count entries live at once during the
    /// merge — the maximum over records of distinct co-candidates `j > i`,
    /// bounded by `num_records − 1` regardless of how many sub-threshold
    /// co-occurrences the catalog has.
    pub peak_intermediate: usize,
}

/// Fraction of `true_pairs` present in `candidates`. Both sides must be
/// canonical (`i < j`); returns 1.0 when there are no true pairs.
pub fn blocking_recall(candidates: &[(usize, usize)], true_pairs: &[(usize, usize)]) -> f64 {
    if true_pairs.is_empty() {
        return 1.0;
    }
    let set: std::collections::HashSet<(usize, usize)> = candidates.iter().copied().collect();
    let hit = true_pairs.iter().filter(|p| set.contains(p)).count();
    hit as f64 / true_pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use emba_datagen::{product_catalog, CatalogSpec};

    fn rec(text: &str) -> Record {
        Record::new(vec![("title", text)])
    }

    #[test]
    fn keys_are_deduplicated_and_case_insensitive() {
        let cfg = BlockingConfig::default();
        let a = record_keys(&rec("Samsung SAMSUNG samsung"), &cfg);
        let b = record_keys(&rec("samsung"), &cfg);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
    }

    #[test]
    fn qgram_keys_hash_each_window_of_q_chars() {
        // The definition: every run of `q` chars of a lowercased token,
        // multi-byte chars whole; tokens shorter than `q` give none.
        let cfg = BlockingConfig { use_tokens: false, ..Default::default() };
        for text in ["Größe 4TB Samsung ÉvÖ-850 µ", "Samsung EVO 850 Pro 4TB"] {
            let mut want: Vec<u64> = text
                .to_lowercase()
                .split_whitespace()
                .flat_map(|tok| {
                    let chars: Vec<char> = tok.chars().collect();
                    chars
                        .windows(cfg.q)
                        .map(|w| fnv1a(w.iter().collect::<String>().as_bytes()) ^ QGRAM_SALT)
                        .collect::<Vec<_>>()
                })
                .collect();
            want.sort_unstable();
            want.dedup();
            assert!(want.len() >= 4, "{text}: too few q-grams to test");
            assert_eq!(record_keys(&rec(text), &cfg), want, "{text}");
        }
    }

    #[test]
    fn token_and_qgram_keys_do_not_collide() {
        let only_tokens = BlockingConfig { use_qgrams: false, ..Default::default() };
        let only_qgrams = BlockingConfig { use_tokens: false, ..Default::default() };
        let t = record_keys(&rec("evo4"), &only_tokens);
        let q = record_keys(&rec("evo4"), &only_qgrams);
        assert_eq!(t.len(), 1);
        assert_eq!(q.len(), 1); // one 4-gram
        assert_ne!(t[0], q[0], "token hash must not collide with its own q-gram");
    }

    #[test]
    fn candidates_are_canonical_and_deduplicated() {
        let records = vec![
            rec("samsung evo 850 ssd"),
            rec("samsung evo 850 drive"),
            rec("canon eos camera body"),
            rec("samsung evo 850 ssd"), // exact duplicate of record 0
        ];
        let cfg = BlockingConfig::default();
        let index = BlockingIndex::build(&records, &cfg);
        let pairs = index.candidates(&cfg);
        for &(i, j) in &pairs {
            assert!(i < j, "pair ({i}, {j}) not canonical");
        }
        let mut sorted = pairs.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), pairs.len(), "duplicate pairs emitted");
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(0, 3)));
        assert!(!pairs.iter().any(|&(i, j)| i == j), "self-pair emitted");
    }

    #[test]
    fn unrelated_records_produce_no_candidates() {
        let records = vec![rec("alpha beta gamma"), rec("delta epsilon zeta")];
        let cfg = BlockingConfig::default();
        let pairs = BlockingIndex::build(&records, &cfg).candidates(&cfg);
        assert!(pairs.is_empty(), "got {pairs:?}");
    }

    #[test]
    fn stop_keys_suppress_ubiquitous_tokens() {
        // 20 records all share the token "ssd"; with max_posting below 20
        // that key alone cannot pair anything.
        let records: Vec<Record> =
            (0..20).map(|i| rec(&format!("unique{i} ssd"))).collect();
        let cfg = BlockingConfig {
            max_posting: 10,
            min_shared: 1,
            use_qgrams: false,
            ..Default::default()
        };
        let pairs = BlockingIndex::build(&records, &cfg).candidates(&cfg);
        assert!(pairs.is_empty(), "stop key leaked {} pairs", pairs.len());
    }

    #[test]
    fn near_stop_word_postings_keep_peak_intermediate_linear() {
        // Two groups of exactly `max_posting` records each share one group
        // token — posting lists right at the stop-key boundary, so they are
        // NOT muted. With min_shared = 2 every intra-group pair shares only
        // that single key: all co-occurrences are sub-threshold, and the
        // old global-map merge held every one of them at once
        // (2 · C(12,2) = 132 entries). The per-record merge's live state
        // peaks at one record's partner count instead.
        let group = 12usize;
        let records: Vec<Record> = (0..2 * group)
            .map(|i| rec(&format!("grp{} unique{i}", i / group)))
            .collect();
        let cfg = BlockingConfig {
            max_posting: group,
            min_shared: 2,
            use_qgrams: false, // q-grams of unique{i} would add shared keys
            ..Default::default()
        };
        let index = BlockingIndex::build(&records, &cfg);
        let (pairs, stats) = index.candidates_with_stats(&cfg);
        assert!(pairs.is_empty(), "single shared key must stay sub-threshold");
        assert!(
            stats.peak_intermediate < group,
            "peak intermediate {} exceeds one record's partner count {}",
            stats.peak_intermediate,
            group - 1
        );
        // Sanity: record 0 really does co-occur with its 11 group mates.
        assert_eq!(stats.peak_intermediate, group - 1);
    }

    #[test]
    fn stats_variant_matches_plain_candidates() {
        let cat = product_catalog(&CatalogSpec::quick("stats", 120));
        let cfg = BlockingConfig::default();
        let index = BlockingIndex::build(&cat.records, &cfg);
        let (pairs, stats) = index.candidates_with_stats(&cfg);
        assert_eq!(pairs, index.candidates(&cfg));
        assert!(stats.peak_intermediate < cat.len());
    }

    #[test]
    fn recall_counts_surviving_true_pairs() {
        let candidates = vec![(0, 1), (2, 3)];
        let truth = vec![(0, 1), (4, 5)];
        assert!((blocking_recall(&candidates, &truth) - 0.5).abs() < 1e-12);
        assert_eq!(blocking_recall(&candidates, &[]), 1.0);
    }

    #[test]
    fn min_shared_threshold_is_monotone() {
        let cat = product_catalog(&CatalogSpec::quick("mono", 60));
        let truth = cat.true_pairs();
        let index = BlockingIndex::build(&cat.records, &BlockingConfig::default());
        let mut prev_count = usize::MAX;
        let mut prev_recall = f64::INFINITY;
        for min_shared in 1..=5 {
            let cfg = BlockingConfig { min_shared, ..Default::default() };
            let pairs = index.candidates(&cfg);
            let recall = blocking_recall(&pairs, &truth);
            assert!(
                pairs.len() <= prev_count,
                "candidate count must shrink as min_shared grows"
            );
            assert!(recall <= prev_recall, "recall must not grow as min_shared grows");
            prev_count = pairs.len();
            prev_recall = recall;
        }
    }

    #[test]
    fn default_config_reaches_recall_floor_on_product_catalog() {
        // Big enough that the category vocabulary stops saturating every
        // record pair; tiny catalogs from a fixed vocab are legitimately
        // dense in shared tokens.
        let cat = product_catalog(&CatalogSpec::quick("recall", 600));
        let cfg = BlockingConfig::default();
        let index = BlockingIndex::build(&cat.records, &cfg);
        let pairs = index.candidates(&cfg);
        let recall = blocking_recall(&pairs, &cat.true_pairs());
        assert!(recall >= 0.95, "blocking recall {recall:.3} below 0.95 floor");
        // And it must actually block: under 10% of the all-pairs space.
        let n = cat.len();
        assert!(
            pairs.len() < n * (n - 1) / 2 / 10,
            "blocking barely prunes: {} of {} pairs",
            pairs.len(),
            n * (n - 1) / 2
        );
    }
}
