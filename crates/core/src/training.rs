//! Construction of training examples from the execution log.
//!
//! `constructTrainingExamples` (line 1 of Algorithm 1) turns the log into
//! the set of pairs *related* to the query: pairs that satisfy the despite
//! clause and either the observed or the expected clause.  The pairs that
//! performed as observed become positive examples, the pairs that performed
//! as expected become negative ones.  `sample` (line 2) then draws a
//! class-balanced sample so that explanation generation stays fast and is
//! not misled by skewed class frequencies.
//!
//! Enumerating every ordered pair of a large log is quadratic, so the
//! builder applies two optimisations that do not change the result
//! semantics:
//!
//! * **Blocking** — when the despite clause contains `f_isSame = T` for a
//!   nominal raw feature (e.g. `jobid_isSame = T` for task queries), only
//!   pairs within the same group can possibly be related, so only those are
//!   enumerated.
//! * **Capping** — if the candidate space is still larger than
//!   `max_candidate_pairs`, a deterministic subset is kept, decided by a
//!   stateless per-candidate hash so that enumeration order (and therefore
//!   parallelism) cannot change the outcome.
//!
//! The enumeration itself is **streaming**: candidates are classified
//! against a [`CompiledQuery`] as they are produced, so memory stays
//! proportional to the *related* pairs (bounded by the cap), never to the
//! O(n²) candidate space.  On multi-core machines the outer record loop is
//! fanned out over `std::thread::scope` threads **by default** once the
//! plan enumerates at least as many candidates as an unblocked
//! [`PARALLEL_ENUMERATION_THRESHOLD`]-record log (below that — including
//! blocked queries whose groups shrink the candidate space — thread setup
//! costs more than the whole scan).  Results are bit-identical either
//! way.

use crate::cancel::CancelToken;
use crate::columnar::{ColumnarLog, CompiledQuery};
use crate::config::ExplainConfig;
use crate::error::{CoreError, Result};
use crate::features::FeatureKind;
use crate::pairs::{parse_pair_feature, PairExample, PairFeatureGroup};
use crate::query::{BoundQuery, PairLabel};
use crate::record::{ExecutionLog, ExecutionRecord};
use mlcore::{balanced_sample, AttrValue};
use pxql::{Op, Value};
use rand::rngs::StdRng;
use rand::RngExt;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A class-balanced, fully materialised set of training pairs.
#[derive(Debug, Clone, Default)]
pub struct TrainingSet {
    /// The training pairs with their full pair-feature maps.
    pub examples: Vec<PairExample>,
    /// `true` for pairs that performed as observed (positive class).
    pub labels: Vec<bool>,
}

impl TrainingSet {
    /// Number of training pairs.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Number of pairs that performed as observed.
    pub fn num_observed(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Number of pairs that performed as expected.
    pub fn num_expected(&self) -> usize {
        self.len() - self.num_observed()
    }

    /// Iterates over `(example, performed_as_observed)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&PairExample, bool)> {
        self.examples.iter().zip(self.labels.iter().copied())
    }
}

/// A related candidate pair before materialisation: indices into the record
/// list plus its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelatedPair {
    /// Index of the first execution in the per-kind record list.
    pub left: usize,
    /// Index of the second execution.
    pub right: usize,
    /// Observed or expected.
    pub label: PairLabel,
}

/// Finds a blocking key in the despite clause: a `f_isSame = T` atom whose
/// raw feature is nominal.  Pairs disagreeing on that raw feature can never
/// satisfy the despite clause, so enumeration can be restricted to groups of
/// records sharing the raw value.
fn blocking_feature<'a>(query: &'a BoundQuery, log: &ExecutionLog) -> Option<&'a str> {
    let catalog = log.catalog(query.kind);
    for atom in query.query.despite.atoms() {
        if atom.op != Op::Eq {
            continue;
        }
        let wants_true = match &atom.constant {
            Value::Bool(b) => *b,
            Value::Str(s) => s.eq_ignore_ascii_case("T") || s.eq_ignore_ascii_case("true"),
            _ => false,
        };
        if !wants_true {
            continue;
        }
        let (raw, group) = parse_pair_feature(&atom.feature);
        if group == PairFeatureGroup::IsSame && catalog.kind(raw) == Some(FeatureKind::Nominal) {
            return Some(raw);
        }
    }
    None
}

/// The candidate enumeration plan: either every ordered pair, or only the
/// ordered pairs within blocking groups.
enum CandidatePlan {
    /// All `n·(n-1)` ordered pairs.
    All { n: usize },
    /// Ordered pairs within each group (blocking).
    Blocked { groups: Vec<Vec<usize>> },
}

impl CandidatePlan {
    /// Builds the plan for a query over a view, applying blocking when the
    /// despite clause allows it.
    fn build(view: &ColumnarLog, query: &BoundQuery, log: &ExecutionLog) -> CandidatePlan {
        let n = view.num_rows();
        let Some(block_feature) = blocking_feature(query, log) else {
            return CandidatePlan::All { n };
        };
        let Some(col) = view.column_of(block_feature) else {
            return CandidatePlan::All { n };
        };
        // Group rows by the blocking feature's canonical text, exactly as
        // the map-based path grouped by `Value::to_string()`; rows with a
        // missing value can never satisfy `f_isSame = T` and are dropped.
        let mut key_cache: Vec<Option<String>> = Vec::new();
        let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for row in 0..n {
            let key = match view.cell(row, col) {
                AttrValue::Missing => continue,
                AttrValue::Num(v) => Value::Num(v).to_string(),
                AttrValue::Nom(id) => {
                    let id = id as usize;
                    if id >= key_cache.len() {
                        key_cache.resize(id + 1, None);
                    }
                    key_cache[id]
                        .get_or_insert_with(|| view.original(col, id as u32).to_string())
                        .clone()
                }
            };
            groups.entry(key).or_default().push(row);
        }
        CandidatePlan::Blocked {
            groups: groups.into_values().collect(),
        }
    }

    /// Total number of candidates the plan enumerates.
    fn total(&self) -> u64 {
        match self {
            CandidatePlan::All { n } => (*n as u64) * (n.saturating_sub(1) as u64),
            CandidatePlan::Blocked { groups } => groups
                .iter()
                .map(|g| (g.len() as u64) * (g.len().saturating_sub(1) as u64))
                .sum(),
        }
    }

    /// Flattens the plan into outer units: one unit per left-hand row, with
    /// the ordinal of its first candidate.  Units are enumerated in the
    /// exact order the eager path used.
    fn units(&self) -> Vec<OuterUnit> {
        let mut units = Vec::new();
        let mut base = 0u64;
        match self {
            CandidatePlan::All { n } => {
                for left in 0..*n {
                    units.push(OuterUnit {
                        left,
                        group: None,
                        base,
                    });
                    base += n.saturating_sub(1) as u64;
                }
            }
            CandidatePlan::Blocked { groups } => {
                for (g, members) in groups.iter().enumerate() {
                    for (position, &left) in members.iter().enumerate() {
                        units.push(OuterUnit {
                            left,
                            group: Some((g, position)),
                            base,
                        });
                        base += members.len().saturating_sub(1) as u64;
                    }
                }
            }
        }
        units
    }
}

/// One outer-loop unit: a left-hand row plus the ordinal of its first
/// candidate pair.
struct OuterUnit {
    left: usize,
    /// `(group index, position of `left` within the group)` for blocked
    /// plans.
    group: Option<(usize, usize)>,
    base: u64,
}

/// Record count at or above which the streaming enumeration of an
/// *unblocked* query fans its outer loop out over threads by default.  At
/// 256 records the candidate space is ~65k pairs (≈1 ms of
/// classification), comfortably above the ~100 µs a `std::thread::scope`
/// setup costs, so the fan-out pays for itself; below it the serial scan
/// wins.  `cargo bench --bench pairs_pipeline` records this choice in
/// `BENCH_pairs.json`.
pub const PARALLEL_ENUMERATION_THRESHOLD: usize = 256;

/// The candidate-count form of [`PARALLEL_ENUMERATION_THRESHOLD`]: the
/// number of ordered pairs a threshold-sized unblocked log enumerates.
/// The auto gate compares against the *actual* plan total, so a blocked
/// query whose groups shrink the candidate space (however many records the
/// log holds) stays serial instead of paying thread setup for microseconds
/// of work.
const PARALLEL_ENUMERATION_MIN_CANDIDATES: u64 =
    (PARALLEL_ENUMERATION_THRESHOLD as u64) * (PARALLEL_ENUMERATION_THRESHOLD as u64 - 1);

/// Whether the outer enumeration loop should fan out for a plan enumerating
/// `total_candidates` pairs: from [`PARALLEL_ENUMERATION_MIN_CANDIDATES`]
/// candidates on.
fn fan_out_enabled(total_candidates: u64) -> bool {
    total_candidates >= PARALLEL_ENUMERATION_MIN_CANDIDATES
}

/// SplitMix64 finaliser: a stateless, well-mixed hash of a candidate
/// ordinal, used for order-independent capping decisions.
fn mix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform f64 in [0, 1).
fn unit_f64(hash: u64) -> f64 {
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Classifies the candidates of one outer unit, appending related pairs.
fn scan_unit(
    unit: &OuterUnit,
    plan: &CandidatePlan,
    view: &ColumnarLog,
    compiled: &CompiledQuery,
    keep: Option<(u64, f64)>,
    out: &mut Vec<RelatedPair>,
) {
    let mut classify = |left: usize, right: usize, ordinal: u64| {
        if let Some((seed_mix, probability)) = keep {
            if unit_f64(mix64(seed_mix ^ ordinal)) >= probability {
                return;
            }
        }
        let label = compiled.classify(view, left, right);
        if label.is_related() {
            out.push(RelatedPair { left, right, label });
        }
    };
    match (unit.group, plan) {
        (None, _) => {
            let n = view.num_rows();
            for right in 0..n {
                if right == unit.left {
                    continue;
                }
                let offset = if right < unit.left { right } else { right - 1 };
                classify(unit.left, right, unit.base + offset as u64);
            }
        }
        (Some((g, position)), CandidatePlan::Blocked { groups }) => {
            for (other, &right) in groups[g].iter().enumerate() {
                if other == position {
                    continue;
                }
                let offset = if other < position { other } else { other - 1 };
                classify(unit.left, right, unit.base + offset as u64);
            }
        }
        (Some(_), CandidatePlan::All { .. }) => unreachable!("blocked unit in an All plan"),
    }
}

/// Outer units scanned between two cancellation checks.  A unit classifies
/// up to n candidates, so at 512 units the check amortises to well under a
/// nanosecond per candidate while an expired deadline still stops a large
/// enumeration within milliseconds.
const CANCEL_CHECK_UNITS: usize = 512;

/// Enumerates and classifies the related pairs of an encoded view without
/// materialising the candidate space: memory stays proportional to the
/// related pairs (bounded by `max_candidate_pairs`), never O(n²).
pub fn collect_related_pairs_in(
    view: &ColumnarLog,
    query: &BoundQuery,
    log: &ExecutionLog,
    config: &ExplainConfig,
) -> Vec<RelatedPair> {
    collect_related_pairs_cancellable(view, query, log, config, &CancelToken::never())
        .expect("the never token cannot cancel the enumeration")
}

/// [`collect_related_pairs_in`] with a cooperative cancellation token,
/// checked every [`CANCEL_CHECK_UNITS`] outer units (per fan-out thread when
/// the scan is parallel).  On cancellation the partial result is discarded
/// and the token's error comes back.
pub fn collect_related_pairs_cancellable(
    view: &ColumnarLog,
    query: &BoundQuery,
    log: &ExecutionLog,
    config: &ExplainConfig,
    cancel: &CancelToken,
) -> Result<Vec<RelatedPair>> {
    cancel.check()?;
    if view.num_rows() < 2 {
        return Ok(Vec::new());
    }
    let compiled = CompiledQuery::compile(query, view, config.sim_threshold);
    let plan = CandidatePlan::build(view, query, log);
    let total = plan.total();
    let keep = (total > config.max_candidate_pairs as u64).then(|| {
        (
            config.seed ^ 0xC0FFEE,
            config.max_candidate_pairs as f64 / total as f64,
        )
    });
    let units = plan.units();

    let scan_units = |chunk: &[OuterUnit]| -> Result<Vec<RelatedPair>> {
        let mut out = Vec::new();
        for (index, unit) in chunk.iter().enumerate() {
            if index % CANCEL_CHECK_UNITS == 0 {
                cancel.check()?;
            }
            scan_unit(unit, &plan, view, &compiled, keep, &mut out);
        }
        Ok(out)
    };

    let threads = crate::shard::hardware_threads();
    if threads > 1 && !units.is_empty() && fan_out_enabled(total) {
        let chunks = crate::shard::map_chunks(&units, threads, scan_units);
        let mut related = Vec::new();
        for chunk in chunks {
            related.extend(chunk?);
        }
        return Ok(related);
    }

    scan_units(&units)
}

/// Enumerates and classifies the pairs of the log that are related to the
/// query.  Returns the per-kind record list alongside the related pairs so
/// that callers can materialise features later.
///
/// This encodes a fresh columnar view of the log; callers that already hold
/// a [`ColumnarLog`] should use [`collect_related_pairs_in`] to avoid the
/// re-encoding.
pub fn collect_related_pairs<'a>(
    log: &'a ExecutionLog,
    query: &BoundQuery,
    config: &ExplainConfig,
) -> (Vec<&'a ExecutionRecord>, Vec<RelatedPair>) {
    let view = ColumnarLog::build_auto(log, query.kind);
    let related = collect_related_pairs_in(&view, query, log, config);
    // The view encodes `of_kind` records in iteration order, so the borrowed
    // record list aligns with the pair indices.
    (log.of_kind(query.kind).collect(), related)
}

/// Draws the class-balanced (or ablation uniform) sample over the related
/// pairs, returning the selected indices into `related`.
fn sample_related(related: &[RelatedPair], config: &ExplainConfig) -> Result<Vec<usize>> {
    let observed = related
        .iter()
        .filter(|p| p.label == PairLabel::Observed)
        .count();
    let expected = related.len() - observed;
    if observed == 0 || expected == 0 {
        return Err(CoreError::NotEnoughTrainingPairs { observed, expected });
    }

    let labels: Vec<bool> = related
        .iter()
        .map(|p| p.label == PairLabel::Observed)
        .collect();
    let selected: Vec<usize> = if config.balanced_sampling {
        balanced_sample(&labels, config.sample_size, config.seed).0
    } else {
        // Ablation: a uniform sample of the related pairs, keeping the
        // original class skew.
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xBA1A);
        let keep = (config.sample_size as f64 / labels.len() as f64).min(1.0);
        (0..labels.len())
            .filter(|_| keep >= 1.0 || rng.random::<f64>() < keep)
            .collect()
    };
    Ok(selected)
}

/// Draws the balanced sample of Section 4.3 and materialises the full pair
/// features of the selected pairs.
pub fn build_training_set(
    log: &ExecutionLog,
    query: &BoundQuery,
    records: &[&ExecutionRecord],
    related: &[RelatedPair],
    config: &ExplainConfig,
) -> Result<TrainingSet> {
    let selected = sample_related(related, config)?;
    let catalog = log.catalog(query.kind);
    let mut set = TrainingSet::default();
    for index in selected {
        let pair = &related[index];
        set.examples.push(PairExample::build(
            catalog,
            records[pair.left],
            records[pair.right],
            config.sim_threshold,
        ));
        set.labels.push(pair.label == PairLabel::Observed);
    }
    if set.num_observed() == 0 || set.num_expected() == 0 {
        return Err(CoreError::NotEnoughTrainingPairs {
            observed: set.num_observed(),
            expected: set.num_expected(),
        });
    }
    Ok(set)
}

/// Convenience: enumerate, classify, sample and materialise in one call.
pub fn prepare_training_set(
    log: &ExecutionLog,
    query: &BoundQuery,
    config: &ExplainConfig,
) -> Result<TrainingSet> {
    let (records, related) = collect_related_pairs(log, query, config);
    build_training_set(log, query, &records, &related, config)
}

/// A sampled training set kept in encoded (row index) form: the columnar
/// view plus the sampled `(left row, right row)` pairs and their labels.
/// The explanation engine consumes this directly — pair features of the
/// sampled pairs are encoded straight into the split-search dataset, and
/// [`PairExample`]s are only materialised at the API boundary.
///
/// The view is held behind an [`Arc`] so that a cached encoding (e.g. one
/// owned by [`XplainService`](crate::service::XplainService)) can feed many
/// training sets — across repeated queries and across threads — without
/// ever being rebuilt or copied.
#[derive(Debug, Clone)]
pub struct EncodedTraining<'a> {
    log: &'a ExecutionLog,
    /// The columnar encoded view the pairs index into.
    pub view: Arc<ColumnarLog>,
    /// Sampled `(left, right)` row pairs, in selection order.
    pub pairs: Vec<(usize, usize)>,
    /// `true` for pairs that performed as observed.
    pub labels: Vec<bool>,
    /// Total related pairs found by the enumeration, before sampling — the
    /// actual (not estimated) candidate workload, used to refine admission
    /// costs after the fact.
    pub related_pairs: usize,
}

impl<'a> EncodedTraining<'a> {
    /// Number of sampled pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of pairs that performed as observed.
    pub fn num_observed(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Number of pairs that performed as expected.
    pub fn num_expected(&self) -> usize {
        self.len() - self.num_observed()
    }

    /// The log this training set was drawn from.
    pub fn log(&self) -> &'a ExecutionLog {
        self.log
    }

    /// Rows of the query's pair of interest in the encoded view, or `None`
    /// when either execution id is absent from the view.  Always `Some` for
    /// a query that passed `verify_preconditions` against the same log
    /// generation.
    pub fn poi_rows(&self, query: &BoundQuery) -> Option<(usize, usize)> {
        Some((
            self.view.row_of(&query.left_id)?,
            self.view.row_of(&query.right_id)?,
        ))
    }

    /// Materialises the sampled pairs as [`PairExample`]s (the API /
    /// narration boundary representation).
    pub fn materialise(&self, sim_threshold: f64) -> TrainingSet {
        let catalog = self.log.catalog(self.view.kind());
        let mut set = TrainingSet::default();
        for (&(left, right), &label) in self.pairs.iter().zip(&self.labels) {
            set.examples.push(PairExample::build(
                catalog,
                self.view.record(left),
                self.view.record(right),
                sim_threshold,
            ));
            set.labels.push(label);
        }
        set
    }
}

/// Enumerates, classifies and samples the related pairs of the log, keeping
/// everything in encoded form.  One encoding pass over the log, no pair
/// feature maps.
pub fn prepare_encoded_training<'a>(
    log: &'a ExecutionLog,
    query: &BoundQuery,
    config: &ExplainConfig,
) -> Result<EncodedTraining<'a>> {
    let view = Arc::new(ColumnarLog::build_auto(log, query.kind));
    prepare_encoded_training_in(log, view, query, config)
}

/// Like [`prepare_encoded_training`], but reuses an already-encoded view —
/// the zero-re-encoding path for repeated queries over the same log (the
/// despite-extension pass of `explain_full`, and every query answered by a
/// [`XplainService`](crate::service::XplainService) cache hit).
pub fn prepare_encoded_training_in<'a>(
    log: &'a ExecutionLog,
    view: Arc<ColumnarLog>,
    query: &BoundQuery,
    config: &ExplainConfig,
) -> Result<EncodedTraining<'a>> {
    prepare_encoded_training_cancellable(log, view, query, config, &CancelToken::never())
}

/// [`prepare_encoded_training_in`] with a cooperative cancellation token
/// threaded into the pair enumeration (the dominant cost of training-set
/// construction on large logs).
pub fn prepare_encoded_training_cancellable<'a>(
    log: &'a ExecutionLog,
    view: Arc<ColumnarLog>,
    query: &BoundQuery,
    config: &ExplainConfig,
    cancel: &CancelToken,
) -> Result<EncodedTraining<'a>> {
    let related = collect_related_pairs_cancellable(&view, query, log, config, cancel)?;
    let related_pairs = related.len();
    let selected = sample_related(&related, config)?;
    let mut pairs = Vec::with_capacity(selected.len());
    let mut labels = Vec::with_capacity(selected.len());
    for index in selected {
        let pair = &related[index];
        pairs.push((pair.left, pair.right));
        labels.push(pair.label == PairLabel::Observed);
    }
    let observed = labels.iter().filter(|&&l| l).count();
    if observed == 0 || observed == labels.len() {
        return Err(CoreError::NotEnoughTrainingPairs {
            observed,
            expected: labels.len() - observed,
        });
    }
    Ok(EncodedTraining {
        log,
        view,
        pairs,
        labels,
        related_pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ExecutionRecord;
    use pxql::parse_query;

    /// A synthetic log where half the job pairs with larger input have the
    /// same duration (because block size is large) and half behave as
    /// expected (bigger input takes longer).
    fn synthetic_log() -> ExecutionLog {
        let mut log = ExecutionLog::new();
        for i in 0..30 {
            let big_blocks = i % 2 == 0;
            let input = if i % 3 == 0 { 32.0e9 } else { 1.0e9 };
            // Jobs with big blocks finish in ~600s regardless of input size;
            // small-block jobs scale with input.
            let duration = if big_blocks { 600.0 } else { input / 5.0e7 };
            log.push(
                ExecutionRecord::job(format!("job_{i}"))
                    .with_feature("inputsize", input)
                    .with_feature("blocksize", if big_blocks { 1024.0 } else { 64.0 })
                    .with_feature("pigscript", if i % 5 == 0 { "a.pig" } else { "b.pig" })
                    .with_feature("duration", duration),
            );
        }
        log.rebuild_catalogs();
        log
    }

    fn query() -> BoundQuery {
        let q = parse_query(
            "DESPITE inputsize_compare = GT\n\
             OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
        )
        .unwrap();
        BoundQuery::new(q, "job_0", "job_1")
    }

    #[test]
    fn related_pairs_have_both_labels() {
        let log = synthetic_log();
        let config = ExplainConfig::default();
        let (records, related) = collect_related_pairs(&log, &query(), &config);
        assert_eq!(records.len(), 30);
        assert!(!related.is_empty());
        assert!(related.iter().any(|p| p.label == PairLabel::Observed));
        assert!(related.iter().any(|p| p.label == PairLabel::Expected));
        // Only pairs with strictly greater input size are related.
        for pair in &related {
            let left = records[pair.left].feature("inputsize").as_num().unwrap();
            let right = records[pair.right].feature("inputsize").as_num().unwrap();
            assert!(left > right);
        }
    }

    #[test]
    fn training_set_is_materialised_and_balanced() {
        let log = synthetic_log();
        let config = ExplainConfig::default().with_sample_size(60);
        let set = prepare_training_set(&log, &query(), &config).unwrap();
        assert!(!set.is_empty());
        assert!(set.num_observed() > 0);
        assert!(set.num_expected() > 0);
        // Full pair features are available.
        assert!(set.examples[0].features.contains_key("blocksize_isSame"));
        assert!(set.examples[0].features.contains_key("blocksize_compare"));
        assert_eq!(set.iter().count(), set.len());
    }

    #[test]
    fn capping_limits_candidate_pairs() {
        let log = synthetic_log();
        let config = ExplainConfig {
            max_candidate_pairs: 50,
            ..ExplainConfig::default()
        };
        let (_, related) = collect_related_pairs(&log, &query(), &config);
        // 30 jobs -> 870 ordered pairs before capping; far fewer after.
        assert!(related.len() <= 60, "related = {}", related.len());
    }

    #[test]
    fn blocking_restricts_to_matching_groups() {
        let log = synthetic_log();
        let q = parse_query(
            "DESPITE pigscript_isSame = T\n\
             OBSERVED duration_compare = GT\n\
             EXPECTED duration_compare = SIM",
        )
        .unwrap();
        let bound = BoundQuery::new(q, "job_0", "job_5");
        assert_eq!(blocking_feature(&bound, &log), Some("pigscript"));
        let config = ExplainConfig::default();
        let (records, related) = collect_related_pairs(&log, &bound, &config);
        for pair in &related {
            assert_eq!(
                records[pair.left].feature("pigscript"),
                records[pair.right].feature("pigscript")
            );
        }
    }

    #[test]
    fn single_class_fails_with_descriptive_error() {
        // All jobs identical: no pair can perform "as observed".
        let mut log = ExecutionLog::new();
        for i in 0..5 {
            log.push(
                ExecutionRecord::job(format!("job_{i}"))
                    .with_feature("inputsize", 1.0e9)
                    .with_feature("duration", 100.0),
            );
        }
        log.rebuild_catalogs();
        let err = prepare_training_set(&log, &query(), &ExplainConfig::default()).unwrap_err();
        assert!(matches!(err, CoreError::NotEnoughTrainingPairs { .. }));
    }

    #[test]
    fn tiny_log_yields_no_pairs() {
        let mut log = ExecutionLog::new();
        log.push(ExecutionRecord::job("only").with_feature("duration", 1.0));
        log.rebuild_catalogs();
        let (_, related) = collect_related_pairs(&log, &query(), &ExplainConfig::default());
        assert!(related.is_empty());
    }
}
