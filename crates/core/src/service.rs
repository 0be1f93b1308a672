//! Long-lived query service: encode the log once, serve many PXQL queries.
//!
//! PerfXplain is an *interactive* debugging tool — a user investigating one
//! slow job poses many PXQL queries against the same execution log.  The
//! stateless [`PerfXplain`] API re-encodes the log's columnar view on every
//! call; [`XplainService`] is the long-lived alternative that caches the
//! [`ColumnarLog`] encoding and reuses it across queries and across
//! threads:
//!
//! * The service owns the [`ExecutionLog`] behind an `RwLock`.  Mutations go
//!   through [`XplainService::with_log_mut`] and bump the log's
//!   **generation counter**; queries run under the read lock against a
//!   cached view stamped with the generation it was built at, so a stale
//!   view can never be observed.
//! * The cache is **delta-maintained**: records ingested through
//!   [`XplainService::append`] keep the cached views alive, and the next
//!   query splices the fresh records into a small *tail segment*
//!   ([`ColumnarLog::with_appended`]) that shares the unchanged base
//!   buffers by `Arc` — refresh cost is O(tail), not O(log).  Non-append
//!   mutations ([`XplainService::with_log_mut`],
//!   [`XplainService::replace_log`]) still drop the cache and trigger a
//!   full rebuild; the log's per-kind *rewrite watermark*
//!   ([`ExecutionLog::rewrite_generation`]) is what separates the two.
//!   Oversized tails are folded back into the base in the background
//!   ([`CompactionPolicy`]), off the query path.
//! * One [`QueryRequest`] carries everything a query needs — the PXQL text
//!   (or an already-parsed/bound query), the pair of interest, per-query
//!   config overrides, and the despite-extension / narration / assessment
//!   flags — and one [`QueryOutcome`] carries everything back, replacing
//!   the old parse → bind → explain → assess → narrate choreography.
//! * The service is `Sync`: [`XplainService::par_explain_batch`] answers a
//!   slice of requests on the shared worker pool ([`crate::pool::shared`]),
//!   all sharing the same cached `Arc<ColumnarLog>` view.
//!
//! The stateless [`PerfXplain::explain`] / [`PerfXplain::explain_full`] are
//! thin wrappers over a single-shot pass through this module
//! ([`XplainService::answer_once`]), so there is exactly one code path.

use crate::cancel::CancelToken;
use crate::columnar::ColumnarLog;
use crate::config::ExplainConfig;
use crate::error::Result;
use crate::explain::PerfXplain;
use crate::explanation::Explanation;
use crate::metrics::{assess, ExplanationQuality};
use crate::narrate::narrate;
use crate::query::BoundQuery;
use crate::record::{ExecutionKind, ExecutionLog, ExecutionRecord};
use pxql::PxqlQuery;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// An observer for the **actual** cost of a query, fired from inside the
/// explanation pipeline once the related pairs have been enumerated —
/// the point where the admission-time estimate (an upper bound over the
/// candidate space) can be replaced by the measured related-pair count.
/// Admission controllers attach one via [`QueryRequest::with_cost_probe`]
/// and refund the estimate/actual difference to their budget mid-flight.
#[derive(Clone)]
pub struct CostProbe(Arc<dyn Fn(u64) + Send + Sync>);

impl CostProbe {
    /// Wraps a callback invoked with the enumerated related-pair count.
    pub fn new(f: impl Fn(u64) + Send + Sync + 'static) -> Self {
        CostProbe(Arc::new(f))
    }

    /// Reports the measured related-pair count to the observer.
    pub fn fire(&self, related_pairs: u64) {
        (self.0)(related_pairs)
    }
}

impl std::fmt::Debug for CostProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CostProbe(..)")
    }
}

/// The query of a [`QueryRequest`]: PXQL text, a parsed AST, or an
/// already-bound query.
#[derive(Debug, Clone)]
pub enum QueryInput {
    /// PXQL text, parsed by the service.
    Text(String),
    /// An already-parsed query; the pair of interest comes from its `WHERE`
    /// bindings or from [`QueryRequest::pair`].
    Parsed(PxqlQuery),
    /// A fully bound query.
    Bound(BoundQuery),
}

/// One self-contained query against an [`XplainService`].
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The PXQL query (text, parsed, or bound).
    pub query: QueryInput,
    /// The pair of interest; overrides the query's own `WHERE` bindings.
    pub pair: Option<(String, String)>,
    /// Per-query configuration override (the service's config otherwise).
    pub config: Option<ExplainConfig>,
    /// Extend an irrelevant despite clause automatically (Section 6.4)
    /// before generating the because clause.
    pub extend_despite: bool,
    /// Render the explanation in plain English into
    /// [`QueryOutcome::narration`].
    pub narrate: bool,
    /// Score the explanation over the related pairs into
    /// [`QueryOutcome::quality`].
    pub assess: bool,
    /// Cooperative cancellation handle: the pipeline checks it at phase
    /// boundaries and aborts with
    /// [`CoreError::Cancelled`](crate::CoreError::Cancelled) or
    /// [`CoreError::DeadlineExceeded`](crate::CoreError::DeadlineExceeded).
    /// Defaults to [`CancelToken::never`].
    pub cancel: CancelToken,
    /// Mid-flight cost observer: fired with the enumerated related-pair
    /// count so an admission controller can refund the difference between
    /// its pre-execution estimate and the actual work.
    pub cost_probe: Option<CostProbe>,
}

impl QueryRequest {
    /// A request from PXQL text.
    pub fn text(query: impl Into<String>) -> Self {
        QueryRequest::from_input(QueryInput::Text(query.into()))
    }

    /// A request from a parsed query.
    pub fn parsed(query: PxqlQuery) -> Self {
        QueryRequest::from_input(QueryInput::Parsed(query))
    }

    /// A request from a bound query.
    pub fn bound(query: BoundQuery) -> Self {
        QueryRequest::from_input(QueryInput::Bound(query))
    }

    fn from_input(query: QueryInput) -> Self {
        QueryRequest {
            query,
            pair: None,
            config: None,
            extend_despite: false,
            narrate: false,
            assess: false,
            cancel: CancelToken::never(),
            cost_probe: None,
        }
    }

    /// Sets the pair of interest.
    pub fn with_pair(mut self, left: impl Into<String>, right: impl Into<String>) -> Self {
        self.pair = Some((left.into(), right.into()));
        self
    }

    /// Overrides the service configuration for this query.
    pub fn with_config(mut self, config: ExplainConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Requests automatic despite-clause extension.
    pub fn with_despite_extension(mut self) -> Self {
        self.extend_despite = true;
        self
    }

    /// Requests a plain-English narration of the explanation.
    pub fn with_narration(mut self) -> Self {
        self.narrate = true;
        self
    }

    /// Requests precision / generality / relevance scores.
    pub fn with_assessment(mut self) -> Self {
        self.assess = true;
        self
    }

    /// Attaches a cancellation token; the requester keeps a clone and can
    /// abort the query while it runs.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Bounds the query by a deadline `timeout` from now (a shorthand for
    /// [`QueryRequest::with_cancel`] over
    /// [`CancelToken::with_timeout`]).
    pub fn with_timeout(self, timeout: std::time::Duration) -> Self {
        self.with_cancel(CancelToken::with_timeout(timeout))
    }

    /// Attaches a mid-flight cost observer (see [`CostProbe`]).
    pub fn with_cost_probe(mut self, probe: CostProbe) -> Self {
        self.cost_probe = Some(probe);
        self
    }

    /// Resolves the request into a bound query.
    fn resolve(&self) -> Result<BoundQuery> {
        let parsed = match &self.query {
            QueryInput::Text(text) => pxql::parse_query(text)?,
            QueryInput::Parsed(query) => query.clone(),
            QueryInput::Bound(bound) => {
                let mut bound = bound.clone();
                if let Some((left, right)) = &self.pair {
                    bound.left_id = left.clone();
                    bound.right_id = right.clone();
                }
                return Ok(bound);
            }
        };
        match &self.pair {
            Some((left, right)) => Ok(BoundQuery::new(parsed, left.clone(), right.clone())),
            None => BoundQuery::from_query(parsed),
        }
    }
}

/// Everything one service call produces.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The generated explanation (despite extension + because clause).
    pub explanation: Explanation,
    /// The query that was ultimately explained (despite clause possibly
    /// extended).
    pub query: BoundQuery,
    /// Plain-English rendering, when requested.
    pub narration: Option<String>,
    /// Metric estimates over the related pairs, when requested.
    pub quality: Option<ExplanationQuality>,
    /// Log generation the answer was computed against.
    pub generation: u64,
    /// Whether the columnar view came from the service cache (`false` for
    /// the call that built it).
    pub view_reused: bool,
    /// How many related pairs the final training set was enumerated from —
    /// the query's *actual* dominant cost, versus the candidate-space upper
    /// bound [`CostEstimate::scanned_pairs`] charged at admission.
    pub related_pairs: u64,
}

/// A pre-execution cost estimate of one query, derived from the compiled
/// plan's statistics by [`XplainService::estimate_cost`].  Admission
/// controllers charge [`CostEstimate::units`] against a concurrent-cost
/// budget; the raw components are kept so callers can weigh them
/// differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostEstimate {
    /// Records of the query's kind in the served log.
    pub rows: u64,
    /// Ordered candidate pairs the enumeration will classify (already
    /// clamped by the plan's `max_candidate_pairs` cap).
    pub scanned_pairs: u64,
    /// Sampled training pairs × pair-feature width: the work of encoding
    /// the split-search dataset and growing the clause.
    pub training_cells: u64,
}

impl CostEstimate {
    /// How many classified candidate pairs weigh as much as one cost unit.
    /// 1024 pairs ≈ a few tens of microseconds of classification, so unit
    /// counts stay small integers at interactive log sizes while still
    /// separating cheap and expensive queries by orders of magnitude.
    pub const PAIRS_PER_UNIT: u64 = 1024;

    /// The scalar admission-control cost: total classified-plus-trained
    /// work in [`CostEstimate::PAIRS_PER_UNIT`] chunks, never zero (every
    /// admitted query holds at least one unit of the budget).
    pub fn units(&self) -> u64 {
        (self.scanned_pairs + self.training_cells) / Self::PAIRS_PER_UNIT + 1
    }

    /// The cost re-priced with the measured related-pair count in place of
    /// the candidate-space upper bound, once a [`CostProbe`] has reported
    /// it mid-query.  Admission controllers refund the admitted charge down
    /// to this (never up — the estimate stays the ceiling).
    pub fn refined_units(&self, related_pairs: u64) -> u64 {
        (related_pairs + self.training_cells) / Self::PAIRS_PER_UNIT + 1
    }
}

/// When to fold a live view's tail segment back into its base.
///
/// Delta refreshes keep appended records in a small tail
/// ([`ColumnarLog::tail_rows`]); queries over the tail pay a branch per
/// row access, so an unboundedly growing tail would slowly erode scan
/// speed.  Once a refreshed view's tail reaches `tail_limit` rows the
/// service schedules a background fold ([`ColumnarLog::compacted`]) on the
/// process-wide worker pool — off the query path; queries keep being
/// served from the un-compacted view until the fold lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Tail size (rows) at which a background compaction is scheduled.
    /// `usize::MAX` disables background compaction entirely (the
    /// synchronous [`XplainService::compact_views`] still works).
    pub tail_limit: usize,
}

impl Default for CompactionPolicy {
    /// Defaults to the sharded-build threshold: a tail that large would
    /// have been worth a parallel re-encode anyway.
    fn default() -> Self {
        CompactionPolicy { tail_limit: 8192 }
    }
}

/// Counters describing the view cache's delta-maintenance behaviour,
/// read via [`XplainService::view_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewCacheStats {
    /// Rows held in cached views' immutable base segments.
    pub base_rows: u64,
    /// Rows held in cached views' append tails (not yet compacted).
    pub tail_rows: u64,
    /// Views refreshed by splicing an append tail (O(tail) work).
    pub delta_refreshes: u64,
    /// Views rebuilt from scratch (O(log) work).
    pub full_rebuilds: u64,
    /// Tail segments folded back into their base.
    pub compactions: u64,
    /// Unix timestamp (ms) of the last completed compaction; `0` if none.
    pub last_compaction_unix_ms: u64,
}

/// What [`XplainService::append`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// The log generation after the append.
    pub generation: u64,
    /// How many records were appended.
    pub appended: usize,
    /// Whether the batch reached stable storage before this
    /// acknowledgement: `true` only when an append journal is enabled and
    /// its [`FsyncPolicy`](crate::snapshot::FsyncPolicy) fsynced the frame
    /// (`Always`, or the flush-triggering append under `EveryN`).  A
    /// `false` ack survives a clean shutdown but not a crash before the
    /// next fsync or checkpoint.
    pub durable: bool,
}

/// A cached columnar view stamped with the log generation it reflects.
/// `rows_covered` is the *total* log length (all kinds) when the view was
/// installed: every record of this kind in `records[..rows_covered]` is in
/// the view, so a delta refresh only scans `records[rows_covered..]` —
/// O(appended-since), not O(all rows of the kind).
#[derive(Debug, Clone)]
struct CachedView {
    view: Arc<ColumnarLog>,
    generation: u64,
    rows_covered: usize,
}

/// Shared mutable delta-maintenance state: counters plus the per-kind
/// "compaction in flight" latches (indexed by [`kind_slot`]).  Lives in an
/// `Arc` so background compaction jobs outlive the borrow of the service.
#[derive(Debug, Default)]
struct DeltaStats {
    delta_refreshes: AtomicU64,
    full_rebuilds: AtomicU64,
    compactions: AtomicU64,
    compacting: [AtomicBool; 2],
    last_compaction_unix_ms: AtomicU64,
}

fn kind_slot(kind: ExecutionKind) -> usize {
    match kind {
        ExecutionKind::Job => 0,
        ExecutionKind::Task => 1,
    }
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Where the served log was last checkpointed, and how many records the
/// checkpoint covers.  Present only while *every* mutation since has been
/// an append — [`XplainService::with_log_mut`] / `replace_log` clear it —
/// so [`XplainService::checkpoint`] can persist just `records[rows..]` as
/// an incremental shard instead of re-encoding the world.
#[derive(Debug, Clone)]
struct CheckpointState {
    dir: std::path::PathBuf,
    rows: usize,
}

/// What a journal replay left behind, kept so a later
/// [`XplainService::enable_journal`] for the same directory can *resume*
/// the journal (cursor after the last valid frame, replay counters seeded)
/// instead of resetting it — a reset would discard replayed frames that no
/// checkpoint has absorbed yet.
#[derive(Debug)]
struct JournalSeed {
    dir: std::path::PathBuf,
    replay: crate::snapshot::JournalReplay,
    frames_applied: u64,
    /// Log length once the replay finished: journal frames cover exactly
    /// `records[..rows_covered]` beyond the manifest.
    rows_covered: usize,
}

/// Wraps a snapshot write into `dir` with the journal rotation protocol
/// when the service journals into that directory: flush and stage the next
/// journal generation **before** the manifest commits (a crash in between
/// still finds the old journal covering the old manifest's tail), swap it
/// in only after.  A failed write aborts the staged rotation and leaves
/// the old journal authoritative.  A failed *swap* after the manifest
/// committed deactivates journaling: the commit already unlinked the old
/// `journal.bin`, so a handle stuck on the old inode would keep acking
/// durability recovery could never find.
fn with_journal_rotation(
    journal: &mut Option<crate::snapshot::Journal>,
    dir: &std::path::Path,
    write: impl FnOnce() -> Result<crate::snapshot::SyncReport>,
) -> Result<crate::snapshot::SyncReport> {
    if !matches!(journal.as_ref(), Some(j) if j.dir() == dir) {
        return write();
    }
    let j = journal.as_mut().expect("matched Some above");
    j.sync()?;
    j.begin_rotation()?;
    match write() {
        Ok(report) => {
            if let Err(err) = j.commit_rotation(report.manifest.generation) {
                *journal = None;
                return Err(err);
            }
            Ok(report)
        }
        Err(err) => {
            j.abort_rotation();
            Err(err)
        }
    }
}

/// A long-lived, thread-safe PerfXplain query service.
///
/// ```
/// use perfxplain_core::{
///     ExecutionLog, ExecutionRecord, QueryRequest, XplainService,
/// };
///
/// let mut log = ExecutionLog::new();
/// for i in 0..30 {
///     let big_blocks = i % 2 == 0;
///     let input: f64 = if i % 4 < 2 { 32.0e9 } else { 1.0e9 };
///     let duration = if big_blocks { 600.0 } else { input / 5.0e7 };
///     log.push(
///         ExecutionRecord::job(format!("job_{i}"))
///             .with_feature("inputsize", input)
///             .with_feature("blocksize", if big_blocks { 1024.0 } else { 64.0 })
///             .with_feature("duration", duration),
///     );
/// }
/// log.rebuild_catalogs();
///
/// let service = XplainService::new(log);
/// let request = QueryRequest::text(
///     "DESPITE inputsize_compare = GT\n\
///      OBSERVED duration_compare = SIM\n\
///      EXPECTED duration_compare = GT",
/// )
/// .with_pair("job_0", "job_2");
///
/// // The first query encodes the log; repeats reuse the cached view.
/// let first = service.explain(&request).unwrap();
/// let second = service.explain(&request).unwrap();
/// assert!(!first.view_reused);
/// assert!(second.view_reused);
/// assert_eq!(first.explanation, second.explanation);
/// ```
#[derive(Debug)]
pub struct XplainService {
    log: RwLock<ExecutionLog>,
    /// At most one live columnar view per execution kind, stamped with the
    /// log generation it reflects.  `Arc`d so background compaction jobs
    /// can re-install a folded view after the service borrow ends.
    views: Arc<RwLock<HashMap<ExecutionKind, CachedView>>>,
    stats: Arc<DeltaStats>,
    compaction: CompactionPolicy,
    checkpoint: Mutex<Option<CheckpointState>>,
    /// The write-ahead append journal, when enabled
    /// ([`XplainService::enable_journal`]).  Locked **before** the log on
    /// every path that touches both, so journal frames and in-memory
    /// appends land in the same order.  Deactivated (set to `None`) by
    /// non-append mutations: journal frames record log positions, and an
    /// arbitrary rewrite invalidates them.
    journal: Mutex<Option<crate::snapshot::Journal>>,
    journal_seed: Mutex<Option<JournalSeed>>,
    engine: PerfXplain,
}

impl XplainService {
    /// Creates a service over the log with the default configuration.
    pub fn new(log: ExecutionLog) -> Self {
        XplainService::with_config(log, ExplainConfig::default())
    }

    /// Creates a service over the log with an explicit configuration.
    pub fn with_config(log: ExecutionLog, config: ExplainConfig) -> Self {
        XplainService {
            log: RwLock::new(log),
            views: Arc::new(RwLock::new(HashMap::new())),
            stats: Arc::new(DeltaStats::default()),
            compaction: CompactionPolicy::default(),
            checkpoint: Mutex::new(None),
            journal: Mutex::new(None),
            journal_seed: Mutex::new(None),
            engine: PerfXplain::new(config),
        }
    }

    /// Overrides the tail-compaction policy (builder style).
    pub fn with_compaction_policy(mut self, policy: CompactionPolicy) -> Self {
        self.compaction = policy;
        self
    }

    /// Rehydrates a service from a snapshot directory with the default
    /// configuration (see
    /// [`XplainService::open_snapshot_with_config`]).
    pub fn open_snapshot(dir: &std::path::Path) -> Result<Self> {
        XplainService::open_snapshot_with_config(dir, ExplainConfig::default())
    }

    /// Rehydrates a service from a snapshot directory
    /// ([`crate::snapshot::open`]): the snapshot is consumed into the log
    /// plus both columnar views in one pass
    /// ([`Snapshot::into_views`](crate::snapshot::Snapshot::into_views)),
    /// moving the decoded `Arc`-backed column buffers into the view cache
    /// instead of cloning them — the service starts **warm** at a peak
    /// memory of roughly the final views, and its first query hits the
    /// cache instead of paying a JSON parse and a full re-encode.
    pub fn open_snapshot_with_config(dir: &std::path::Path, config: ExplainConfig) -> Result<Self> {
        let snapshot = crate::snapshot::open(dir)?;
        let service = Self::from_snapshot(snapshot, config);
        // The directory we just opened *is* a checkpoint of the served log:
        // future `checkpoint` calls only need to persist appended records.
        let rows = service.with_log(|log| log.len());
        *service.checkpoint.lock().expect("checkpoint lock poisoned") = Some(CheckpointState {
            dir: dir.to_path_buf(),
            rows,
        });
        // Replay the append journal over the manifest: acknowledged batches
        // the last checkpoint missed splice back in through the delta path,
        // so the restart resumes with the tail already served and warm.
        service.replay_journal(dir)?;
        Ok(service)
    }

    /// Rehydrates a service from a snapshot directory **leniently**
    /// ([`crate::snapshot::open_salvage`]): damaged segments are
    /// quarantined (renamed aside, never deleted) and the service starts
    /// warm over the healthy shards, returning the
    /// [`ShardDamage`](crate::snapshot::ShardDamage) report so the caller
    /// can schedule a targeted re-encode ([`crate::snapshot::sync`] with
    /// only the damaged shards fresh) — or escalate to a full re-ingest if
    /// the source is gone.  The report is empty when the store was fully
    /// healthy, in which case the result equals
    /// [`XplainService::open_snapshot_with_config`].
    ///
    /// Fails only when the manifest itself is unusable or *no* shard
    /// survived — an all-damaged store has nothing to serve.
    pub fn open_snapshot_salvage_with_config(
        dir: &std::path::Path,
        config: ExplainConfig,
    ) -> Result<(Self, Vec<crate::snapshot::ShardDamage>)> {
        let partial = crate::snapshot::open_salvage(dir)?;
        let damage = partial.quarantined().to_vec();
        if partial.healthy_shards() == 0 {
            let first = damage
                .first()
                .map(|d| d.error.to_string())
                .unwrap_or_else(|| "manifest lists no shards".to_string());
            return Err(crate::error::CoreError::SnapshotCorrupt {
                path: dir.display().to_string(),
                message: format!("no healthy shards to salvage (first damage: {first})"),
            });
        }
        let service = Self::from_snapshot(partial.into_snapshot(), config);
        // Replay the journal over whatever survived.  Frames record
        // absolute log positions, so when quarantined shards punched holes
        // in the row space the positions no longer line up and the replay
        // conservatively stops at the first gap — salvage never splices
        // records against the wrong base.  A fully healthy store replays
        // exactly like the strict path.
        service.replay_journal(dir)?;
        Ok((service, damage))
    }

    /// [`XplainService::open_snapshot_salvage_with_config`] with the
    /// default configuration.
    pub fn open_snapshot_salvage(
        dir: &std::path::Path,
    ) -> Result<(Self, Vec<crate::snapshot::ShardDamage>)> {
        Self::open_snapshot_salvage_with_config(dir, ExplainConfig::default())
    }

    /// Builds a warm service from an already-loaded snapshot (strict or
    /// salvaged): views pre-cached, decoded column buffers moved in.
    fn from_snapshot(snapshot: crate::snapshot::Snapshot, config: ExplainConfig) -> Self {
        let crate::snapshot::SnapshotViews { log, job, task } = snapshot.into_views();
        let mut views = HashMap::new();
        for view in [job, task] {
            if view.num_rows() > 0 {
                views.insert(
                    view.kind(),
                    CachedView {
                        view: Arc::new(view),
                        generation: log.generation(),
                        rows_covered: log.len(),
                    },
                );
            }
        }
        XplainService {
            log: RwLock::new(log),
            views: Arc::new(RwLock::new(views)),
            stats: Arc::new(DeltaStats::default()),
            compaction: CompactionPolicy::default(),
            checkpoint: Mutex::new(None),
            journal: Mutex::new(None),
            journal_seed: Mutex::new(None),
            engine: PerfXplain::new(config),
        }
    }

    /// Persists the served log as a segmented snapshot
    /// ([`crate::snapshot::persist`]), one segment per hardware thread, so
    /// the next cold start can [`XplainService::open_snapshot`] instead of
    /// re-parsing JSON.  Runs under the read lock; concurrent queries keep
    /// being served.
    pub fn persist(&self, dir: &std::path::Path) -> Result<crate::snapshot::SyncReport> {
        let mut journal = self.journal.lock().expect("journal lock poisoned");
        let log = self.read_log();
        let report = with_journal_rotation(&mut journal, dir, || {
            crate::snapshot::persist(&log, dir, crate::shard::hardware_threads())
        })?;
        *self.checkpoint.lock().expect("checkpoint lock poisoned") = Some(CheckpointState {
            dir: dir.to_path_buf(),
            rows: log.len(),
        });
        *self
            .journal_seed
            .lock()
            .expect("journal seed lock poisoned") = None;
        Ok(report)
    }

    /// Persists the served log into `dir` **incrementally when possible**:
    /// if `dir` is the directory the log was last opened from or persisted
    /// to, and only appends happened since, the appended suffix is written
    /// as one ordinary incremental shard ([`crate::snapshot::sync_append`])
    /// while every existing shard is kept verbatim — a serving process
    /// checkpoints its live tail without a stop-the-world re-encode.  Any
    /// other history (a different directory, a non-append mutation) falls
    /// back to a full [`XplainService::persist`].  Runs under the read
    /// lock; concurrent queries keep being served.
    pub fn checkpoint(&self, dir: &std::path::Path) -> Result<crate::snapshot::SyncReport> {
        let mut journal = self.journal.lock().expect("journal lock poisoned");
        let log = self.read_log();
        let mut state = self.checkpoint.lock().expect("checkpoint lock poisoned");
        let incremental_from = match &*state {
            Some(s) if s.dir == dir && s.rows <= log.len() => Some(s.rows),
            _ => None,
        };
        let report = with_journal_rotation(&mut journal, dir, || match incremental_from {
            Some(rows) => {
                crate::snapshot::sync_append(dir, log.records()[rows..].to_vec(), log.generation())
            }
            None => crate::snapshot::persist(&log, dir, crate::shard::hardware_threads()),
        })?;
        *state = Some(CheckpointState {
            dir: dir.to_path_buf(),
            rows: log.len(),
        });
        *self
            .journal_seed
            .lock()
            .expect("journal seed lock poisoned") = None;
        Ok(report)
    }

    /// The service-wide configuration (requests can override per query).
    pub fn config(&self) -> &ExplainConfig {
        self.engine.config()
    }

    /// The current generation of the served log.
    pub fn generation(&self) -> u64 {
        self.read_log().generation()
    }

    /// A clone of the served log.
    pub fn snapshot(&self) -> ExecutionLog {
        self.read_log().clone()
    }

    /// Runs `f` against the served log under the read lock.
    pub fn with_log<R>(&self, f: impl FnOnce(&ExecutionLog) -> R) -> R {
        f(&self.read_log())
    }

    /// Mutates the served log under the write lock.  Any mutation bumps the
    /// log's generation, so cached views of the previous state are evicted
    /// and the next query re-encodes.
    ///
    /// Use [`XplainService::with_log`] for read-only access: this method
    /// drops the whole view cache unconditionally.  Cached views always
    /// belong to generations at or below the pre-closure one, so nothing
    /// can survive an ordinary mutation — and a closure that swaps in a
    /// *different* log whose counter happens to collide with a cached key
    /// must not resurrect a stale view either.
    pub fn with_log_mut<R>(&self, f: impl FnOnce(&mut ExecutionLog) -> R) -> R {
        // Journal frames record log positions; an arbitrary rewrite
        // invalidates them, so journaling deactivates (the file stays on
        // disk — its frames still describe acked history against the old
        // manifest, which is what a crash before the next checkpoint needs).
        let mut journal = self.journal.lock().expect("journal lock poisoned");
        *journal = None;
        *self
            .journal_seed
            .lock()
            .expect("journal seed lock poisoned") = None;
        let mut log = self.log.write().expect("log lock poisoned");
        let result = f(&mut log);
        self.views
            .write()
            .expect("view cache lock poisoned")
            .clear();
        // Arbitrary mutation invalidates the append-only checkpoint lineage.
        *self.checkpoint.lock().expect("checkpoint lock poisoned") = None;
        result
    }

    /// Replaces the served log wholesale, dropping every cached view (the
    /// new log's generation counter is unrelated to the old one's).  Like
    /// [`XplainService::with_log_mut`] this deactivates the append journal.
    pub fn replace_log(&self, log: ExecutionLog) {
        let mut journal = self.journal.lock().expect("journal lock poisoned");
        *journal = None;
        *self
            .journal_seed
            .lock()
            .expect("journal seed lock poisoned") = None;
        let mut guard = self.log.write().expect("log lock poisoned");
        *guard = log;
        self.views
            .write()
            .expect("view cache lock poisoned")
            .clear();
        *self.checkpoint.lock().expect("checkpoint lock poisoned") = None;
    }

    /// Appends records to the served log **without dropping the view
    /// cache** — the cheap ingest path for a serving process.  The log's
    /// catalogs are kept exact incrementally ([`ExecutionLog::append`]);
    /// cached views survive whenever their kind's schema was unchanged by
    /// the batch (the common case) and the next query refreshes them in
    /// O(batch) by splicing a tail segment instead of re-encoding the log.
    /// With an append journal enabled ([`XplainService::enable_journal`])
    /// the batch is framed and written to `journal.bin` **before** the
    /// in-memory append — a journal error means nothing was appended and
    /// nothing may be acknowledged.  [`AppendOutcome::durable`] reports
    /// whether the frame was fsynced under the journal's policy.
    pub fn append(&self, records: Vec<ExecutionRecord>) -> Result<AppendOutcome> {
        let mut journal = self.journal.lock().expect("journal lock poisoned");
        let durable = match journal.as_mut() {
            Some(j) => {
                let start_rows = self.read_log().len() as u64;
                match j.append_batch(start_rows, &records) {
                    Ok(durable) => durable,
                    Err(err) => {
                        // A failed append normally scrubs its frame and the
                        // journal stays live; if the scrub itself failed an
                        // unacknowledged frame is stuck at the acked cursor
                        // and any later frame would be shadowed by it on
                        // replay — stop journaling rather than desync.
                        if j.is_broken() {
                            *journal = None;
                        }
                        return Err(err);
                    }
                }
            }
            None => false,
        };
        Ok(self.append_in_memory(records, durable))
    }

    /// The in-memory half of an append: extend the log and retain only the
    /// cached views whose kind saw no schema change.  Callers hold the
    /// journal mutex (or know no journal exists), so journal frames and
    /// log positions stay in lockstep.
    fn append_in_memory(&self, records: Vec<ExecutionRecord>, durable: bool) -> AppendOutcome {
        let appended = records.len();
        let mut log = self.log.write().expect("log lock poisoned");
        let generation = log.append(records);
        // Only views whose kind saw a schema change (rewrite watermark
        // bumped past them) are stale beyond delta repair.
        self.views
            .write()
            .expect("view cache lock poisoned")
            .retain(|kind, entry| entry.generation >= log.rewrite_generation(*kind));
        AppendOutcome {
            generation,
            appended,
            durable,
        }
    }

    /// Enables the write-ahead append journal in `dir`: every subsequent
    /// [`XplainService::append`] frames the batch into
    /// `dir/journal.bin` before it is acknowledged, under `policy`
    /// ([`FsyncPolicy`](crate::snapshot::FsyncPolicy)).  Requires checkpoint
    /// lineage for `dir` (the log was opened from, persisted to, or
    /// checkpointed into it, with only appends since) — journal frames
    /// record positions relative to that directory's manifest, so an
    /// unanchored enable fails with
    /// [`CoreError::JournalNotAnchored`](crate::CoreError::JournalNotAnchored).
    ///
    /// When the service was just opened from `dir` and replayed its
    /// journal, the journal **resumes** after the last valid frame instead
    /// of resetting, so replayed-but-not-yet-checkpointed frames keep
    /// covering their records.  Records appended between the checkpoint and
    /// this call are caught up into the journal immediately.
    pub fn enable_journal(
        &self,
        dir: &std::path::Path,
        policy: crate::snapshot::FsyncPolicy,
    ) -> Result<()> {
        let mut journal = self.journal.lock().expect("journal lock poisoned");
        let checkpoint_rows = {
            let state = self.checkpoint.lock().expect("checkpoint lock poisoned");
            match &*state {
                Some(s) if s.dir == dir => s.rows,
                _ => {
                    return Err(crate::error::CoreError::JournalNotAnchored {
                        path: dir.display().to_string(),
                    })
                }
            }
        };
        let mut seed = self
            .journal_seed
            .lock()
            .expect("journal seed lock poisoned");
        let (mut new, covered) = match seed.take() {
            Some(s) if s.dir == dir => {
                let journal =
                    crate::snapshot::Journal::resume(dir, policy, &s.replay, s.frames_applied)?;
                (journal, s.rows_covered)
            }
            other => {
                *seed = other;
                (
                    crate::snapshot::Journal::create(dir, policy)?,
                    checkpoint_rows,
                )
            }
        };
        drop(seed);
        // Catch up: records acked since the journal's coverage ends (e.g.
        // appended before this call) get one bridging frame, so a crash
        // from here on loses nothing the policy promised.
        {
            let log = self.read_log();
            if log.len() > covered {
                new.append_batch(covered as u64, &log.records()[covered..])?;
            }
        }
        *journal = Some(new);
        Ok(())
    }

    /// Flushes any journal frames not yet fsynced (a no-op without a
    /// journal or when nothing is pending) — the pre-shutdown complement
    /// to [`FsyncPolicy::EveryN`](crate::snapshot::FsyncPolicy) and
    /// [`FsyncPolicy::OnCheckpoint`](crate::snapshot::FsyncPolicy).
    pub fn sync_journal(&self) -> Result<()> {
        match self.journal.lock().expect("journal lock poisoned").as_mut() {
            Some(journal) => journal.sync(),
            None => Ok(()),
        }
    }

    /// Journal health counters for the status probe, `None` while no
    /// journal is enabled.
    pub fn journal_stats(&self) -> Option<crate::snapshot::JournalStats> {
        self.journal
            .lock()
            .expect("journal lock poisoned")
            .as_ref()
            .map(|journal| journal.stats())
    }

    /// Replays `dir`'s append journal over the just-opened log: acked
    /// batches the last checkpoint missed splice back in through the
    /// regular append path (per-kind delta repair included), and the views
    /// the snapshot pre-cached are refreshed immediately, so the first
    /// query after a restart serves the replayed tail without a rebuild.
    /// Frames record absolute log positions — already-covered frames are
    /// skipped, and a positional gap stops the replay conservatively.
    fn replay_journal(&self, dir: &std::path::Path) -> Result<u64> {
        let mut replay = crate::snapshot::read_journal(dir)?;
        let batches = std::mem::take(&mut replay.batches);
        let mut covered = self.with_log(|log| log.len());
        let mut frames_applied = 0u64;
        for batch in batches {
            let start = batch.start_rows as usize;
            let count = batch.records.len();
            if start.saturating_add(count) <= covered {
                // Already part of the manifest (a crash landed between the
                // checkpoint commit and the journal rotation).
                frames_applied += 1;
                continue;
            }
            if start != covered {
                break; // positional gap: never splice against the wrong base
            }
            self.append_in_memory(batch.records, false);
            covered += count;
            frames_applied += 1;
        }
        // Refresh the views the snapshot pre-cached so the replayed tail is
        // spliced now, off the query path.  Kinds without a cached view
        // stay lazy — warming them here would charge a full build to the
        // open.
        let kinds: Vec<ExecutionKind> = {
            let cache = self.views.read().expect("view cache lock poisoned");
            cache.keys().copied().collect()
        };
        {
            let log = self.read_log();
            for kind in kinds {
                self.view_for(&log, kind);
            }
        }
        *self
            .journal_seed
            .lock()
            .expect("journal seed lock poisoned") = Some(JournalSeed {
            dir: dir.to_path_buf(),
            replay,
            frames_applied,
            rows_covered: covered,
        });
        Ok(frames_applied)
    }

    /// Synchronously folds every cached view's tail into its base
    /// ([`ColumnarLog::compacted`]), returning how many views were
    /// compacted.  The background path ([`CompactionPolicy`]) does the
    /// same off the query path; this is for deterministic tests, benches,
    /// and pre-shutdown housekeeping.
    pub fn compact_views(&self) -> usize {
        let mut cache = self.views.write().expect("view cache lock poisoned");
        let mut folded = 0;
        for entry in cache.values_mut() {
            if entry.view.tail_rows() > 0 {
                entry.view = Arc::new(entry.view.compacted());
                folded += 1;
            }
        }
        if folded > 0 {
            self.stats
                .compactions
                .fetch_add(folded as u64, Ordering::Relaxed);
            self.stats
                .last_compaction_unix_ms
                .store(unix_ms(), Ordering::Relaxed);
        }
        folded
    }

    /// A snapshot of the delta-maintenance counters and the cached views'
    /// base/tail row split.
    pub fn view_stats(&self) -> ViewCacheStats {
        let cache = self.views.read().expect("view cache lock poisoned");
        let (base_rows, tail_rows) = cache.values().fold((0u64, 0u64), |(b, t), entry| {
            (
                b + entry.view.base_rows() as u64,
                t + entry.view.tail_rows() as u64,
            )
        });
        ViewCacheStats {
            base_rows,
            tail_rows,
            delta_refreshes: self.stats.delta_refreshes.load(Ordering::Relaxed),
            full_rebuilds: self.stats.full_rebuilds.load(Ordering::Relaxed),
            compactions: self.stats.compactions.load(Ordering::Relaxed),
            last_compaction_unix_ms: self.stats.last_compaction_unix_ms.load(Ordering::Relaxed),
        }
    }

    /// Number of cached columnar views (at most one per execution kind once
    /// the cache is warm).
    pub fn cached_view_count(&self) -> usize {
        self.views.read().expect("view cache lock poisoned").len()
    }

    /// The columnar view of `kind` the service would serve right now:
    /// fetched from the cache, delta-refreshed, or built — exactly the
    /// view the next query of this kind runs against.  Used by the
    /// equivalence proptests and the live-ingest benchmark; queries go
    /// through [`XplainService::explain`].
    pub fn view(&self, kind: ExecutionKind) -> Arc<ColumnarLog> {
        let log = self.read_log();
        self.view_for(&log, kind).0
    }

    /// Answers one query.  The columnar view for the log's current
    /// generation is fetched from the cache or lazily built; everything
    /// else — binding, training, clause generation, optional despite
    /// extension, narration and assessment — happens through the same code
    /// path as the stateless API.
    pub fn explain(&self, request: &QueryRequest) -> Result<QueryOutcome> {
        let bound = request.resolve()?;
        self.explain_resolved(request, &bound)
    }

    /// [`XplainService::explain`] with the query already resolved (the
    /// batch path resolves once up front).
    fn explain_resolved(&self, request: &QueryRequest, bound: &BoundQuery) -> Result<QueryOutcome> {
        let log = self.read_log();
        let (view, view_reused) = self.view_for(&log, bound.kind);
        let engine;
        let engine = match &request.config {
            Some(config) => {
                engine = PerfXplain::new(config.clone());
                &engine
            }
            None => &self.engine,
        };
        answer(engine, &log, view, view_reused, bound, request, false)
    }

    /// Answers a slice of requests concurrently over the process-wide
    /// bounded worker pool ([`crate::pool::shared`]) — the same fixed
    /// threads that back every batch in the process, instead of a fresh
    /// `std::thread::scope` fan-out per call — all workers sharing the
    /// cached view of the current log generation.  Results come back in
    /// request order; each is exactly what [`XplainService::explain`] would
    /// have produced serially.
    pub fn par_explain_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryOutcome>> {
        if requests.len() <= 1 {
            return requests.iter().map(|r| self.explain(r)).collect();
        }
        // Resolve every request once, and warm the view cache per distinct
        // kind up front so the workers share one encoding instead of racing
        // to build it.
        let resolved: Vec<Result<BoundQuery>> = requests.iter().map(|r| r.resolve()).collect();
        {
            let log = self.read_log();
            let mut warmed = Vec::new();
            for bound in resolved.iter().flatten() {
                if !warmed.contains(&bound.kind) {
                    self.view_for(&log, bound.kind);
                    warmed.push(bound.kind);
                }
            }
        }
        let jobs: Vec<(&QueryRequest, &Result<BoundQuery>)> =
            requests.iter().zip(&resolved).collect();
        let pool = crate::pool::shared();
        pool.map_chunks(&jobs, pool.threads(), |chunk| {
            chunk
                .iter()
                .map(|(request, bound)| match bound {
                    Ok(bound) => self.explain_resolved(request, bound),
                    Err(err) => Err(err.clone()),
                })
                .collect::<Vec<Result<QueryOutcome>>>()
        })
        .concat()
    }

    /// Estimates what answering `request` will cost **without building a
    /// view or scanning the log's features** — cheap enough to run at
    /// admission time on every incoming request.  The estimate follows the
    /// compiled plan's own statistics: the candidate space the enumeration
    /// will classify (every ordered pair of the query's kind, clamped by
    /// the `max_candidate_pairs` cap that bounds the real scan) plus the
    /// training work over the sampled pairs (sample size × pair-feature
    /// width derived from the kind's catalog).  Blocked plans scan fewer
    /// pairs than this upper bound, so admission control over-charges them
    /// — the conservative direction for a load-shedding gate.
    pub fn estimate_cost(&self, request: &QueryRequest) -> Result<CostEstimate> {
        let bound = request.resolve()?;
        let config = request.config.as_ref().unwrap_or_else(|| self.config());
        let log = self.read_log();
        let rows = log.rows_of_kind(bound.kind) as u64;
        let scanned_pairs = (rows * rows.saturating_sub(1)).min(config.max_candidate_pairs as u64);
        // Each raw feature fans out into a small constant number of pair
        // features; the catalog length is the right scale factor.
        let features = log.catalog(bound.kind).len().max(1) as u64;
        let training_cells = (config.sample_size as u64).min(scanned_pairs) * features;
        Ok(CostEstimate {
            rows,
            scanned_pairs,
            training_cells,
        })
    }

    /// The single-shot pass behind the stateless [`PerfXplain`] API: build
    /// a fresh view for this one query, then answer through the exact same
    /// code path as a cached service query.  Preconditions are checked
    /// before the view is built, so invalid queries fail without paying for
    /// an encoding.
    pub(crate) fn answer_once(
        engine: &PerfXplain,
        log: &ExecutionLog,
        query: &BoundQuery,
        extend_despite: bool,
    ) -> Result<QueryOutcome> {
        query.verify_preconditions(log, engine.config().sim_threshold)?;
        let view = Arc::new(ColumnarLog::build_auto(log, query.kind));
        let request = QueryRequest {
            query: QueryInput::Bound(query.clone()),
            pair: None,
            config: None,
            extend_despite,
            narrate: false,
            assess: false,
            cancel: CancelToken::never(),
            cost_probe: None,
        };
        answer(engine, log, view, false, query, &request, true)
    }

    fn read_log(&self) -> std::sync::RwLockReadGuard<'_, ExecutionLog> {
        self.log.read().expect("log lock poisoned")
    }

    /// Fetches (or lazily refreshes) the columnar view for the log's
    /// current generation.
    ///
    /// Staleness comes in two flavours.  A cached view whose generation
    /// trails the log's but is still at or past the kind's **rewrite
    /// watermark** is *stale by delta*: everything it missed was a pure
    /// append, so it is refreshed in O(tail) by splicing the fresh records
    /// into a tail segment ([`ColumnarLog::with_appended`]) that shares
    /// the base buffers by `Arc`.  A view behind the watermark is *stale
    /// by rewrite* and is rebuilt from scratch
    /// ([`ColumnarLog::build_auto`] — parallel shards for large logs,
    /// bit-identical to the single-shot encode).
    ///
    /// Builds run **outside** the cache lock: the caller holds the log
    /// read lock, so the log is frozen and two racing builds for the same
    /// generation produce identical views — whichever installs first wins.
    fn view_for(&self, log: &ExecutionLog, kind: ExecutionKind) -> (Arc<ColumnarLog>, bool) {
        let generation = log.generation();
        let delta_base = {
            let cache = self.views.read().expect("view cache lock poisoned");
            match cache.get(&kind) {
                Some(entry) if entry.generation == generation => {
                    return (entry.view.clone(), true);
                }
                Some(entry) if entry.generation >= log.rewrite_generation(kind) => {
                    Some((entry.view.clone(), entry.rows_covered))
                }
                _ => None,
            }
        };
        let (view, reused) = match delta_base {
            Some((prev, covered)) => {
                // Appends only extend the record list, so the cached view
                // holds every record of this kind in `records[..covered]`
                // and the per-kind row count tells in O(1) whether any
                // arrived since — an interleaved append storm of the
                // *other* kind costs this kind neither a scan nor a splice.
                if log.rows_of_kind(kind) == prev.num_rows() {
                    (prev, true)
                } else {
                    let fresh: Vec<&ExecutionRecord> = log.records()[covered..]
                        .iter()
                        .filter(|record| record.kind == kind)
                        .collect();
                    let spliced = Arc::new(prev.with_appended(log.catalog(kind), &fresh));
                    self.stats.delta_refreshes.fetch_add(1, Ordering::Relaxed);
                    (spliced, false)
                }
            }
            None => {
                let built = Arc::new(ColumnarLog::build_auto(log, kind));
                self.stats.full_rebuilds.fetch_add(1, Ordering::Relaxed);
                (built, false)
            }
        };
        let installed = {
            let mut cache = self.views.write().expect("view cache lock poisoned");
            let entry = cache.entry(kind).or_insert_with(|| CachedView {
                view: view.clone(),
                generation,
                rows_covered: log.len(),
            });
            if entry.generation != generation {
                *entry = CachedView {
                    view: view.clone(),
                    generation,
                    rows_covered: log.len(),
                };
            }
            // A racing query may have installed this generation already;
            // both views are identical, keep the first.
            entry.view.clone()
        };
        self.maybe_schedule_compaction(kind, generation, &installed);
        (installed, reused)
    }

    /// Schedules a background tail fold for `view` when its tail has
    /// outgrown the [`CompactionPolicy`].  The job runs on the
    /// process-wide worker pool and re-installs the folded view only if
    /// the cache entry is still exactly the view it folded — a newer
    /// generation or a concurrent compaction simply wins.
    fn maybe_schedule_compaction(
        &self,
        kind: ExecutionKind,
        generation: u64,
        view: &Arc<ColumnarLog>,
    ) {
        if view.tail_rows() < self.compaction.tail_limit {
            return;
        }
        let slot = kind_slot(kind);
        if self.stats.compacting[slot].swap(true, Ordering::AcqRel) {
            return; // one fold in flight per kind
        }
        let stats = Arc::clone(&self.stats);
        let views = Arc::clone(&self.views);
        let view = Arc::clone(view);
        crate::pool::shared().execute(move || {
            let folded = Arc::new(view.compacted());
            {
                let mut cache = views.write().expect("view cache lock poisoned");
                if let Some(entry) = cache.get_mut(&kind) {
                    if entry.generation == generation && Arc::ptr_eq(&entry.view, &view) {
                        entry.view = folded;
                        stats.compactions.fetch_add(1, Ordering::Relaxed);
                        stats
                            .last_compaction_unix_ms
                            .store(unix_ms(), Ordering::Relaxed);
                    }
                }
            }
            stats.compacting[slot].store(false, Ordering::Release);
        });
    }
}

/// The one code path every query goes through: explain (optionally with the
/// automatic despite extension) against a shared view, then narrate and
/// assess on demand.  `preconditions_verified` is `true` only on the
/// single-shot path, which checks preconditions *before* paying for an
/// encoding and must not pay for the check twice.
fn answer(
    engine: &PerfXplain,
    log: &ExecutionLog,
    view: Arc<ColumnarLog>,
    view_reused: bool,
    bound: &BoundQuery,
    request: &QueryRequest,
    preconditions_verified: bool,
) -> Result<QueryOutcome> {
    let (explanation, effective, training) = engine.explain_with_training(
        log,
        view,
        bound,
        request.extend_despite,
        preconditions_verified,
        &request.cancel,
        request.cost_probe.as_ref(),
    )?;
    let narration = request.narrate.then(|| narrate(bound, &explanation));
    // Assessment reuses the training set the clause was grown from (the
    // seeded sample over the effective query) instead of re-enumerating.
    let quality = request.assess.then(|| {
        assess(
            &training.materialise(engine.config().sim_threshold),
            &explanation,
        )
    });
    Ok(QueryOutcome {
        explanation,
        query: effective,
        narration,
        quality,
        generation: log.generation(),
        view_reused,
        related_pairs: training.related_pairs as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ExecutionRecord;

    /// The block-size log of the engine tests: pairs with larger input have
    /// similar durations exactly when blocks are large and the cluster big.
    fn block_size_log(n: usize) -> ExecutionLog {
        let mut log = ExecutionLog::new();
        for i in 0..n {
            let big_blocks = i % 2 == 0;
            let big_cluster = i % 3 != 0;
            let input: f64 = if i % 4 < 2 { 32.0e9 } else { 1.0e9 };
            let duration = if big_blocks && big_cluster {
                600.0
            } else {
                input / (if big_cluster { 150.0 } else { 4.0 } * 2.0e7)
            };
            log.push(
                ExecutionRecord::job(format!("job_{i}"))
                    .with_feature("inputsize", input)
                    .with_feature("blocksize", if big_blocks { 1024.0 } else { 64.0 })
                    .with_feature("numinstances", if big_cluster { 150.0 } else { 4.0 })
                    .with_feature("duration", duration),
            );
        }
        log.rebuild_catalogs();
        log
    }

    const QUERY: &str = "DESPITE inputsize_compare = GT\n\
                         OBSERVED duration_compare = SIM\n\
                         EXPECTED duration_compare = GT";

    fn request() -> QueryRequest {
        QueryRequest::text(QUERY).with_pair("job_4", "job_2")
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<XplainService>();
        assert_send_sync::<QueryRequest>();
        assert_send_sync::<QueryOutcome>();
    }

    #[test]
    fn repeated_queries_reuse_the_cached_view() {
        let service = XplainService::new(block_size_log(40));
        let first = service.explain(&request()).unwrap();
        let second = service.explain(&request()).unwrap();
        assert!(!first.view_reused);
        assert!(second.view_reused);
        assert_eq!(first.generation, second.generation);
        assert_eq!(first.explanation, second.explanation);
        assert_eq!(service.cached_view_count(), 1);
    }

    #[test]
    fn service_matches_the_stateless_api() {
        let log = block_size_log(40);
        let service = XplainService::new(log.clone());
        let outcome = service.explain(&request()).unwrap();
        let bound = outcome.query.clone();
        let stateless = PerfXplain::with_defaults().explain(&log, &bound).unwrap();
        assert_eq!(outcome.explanation, stateless);
    }

    #[test]
    fn mutations_bump_the_generation_and_evict_stale_views() {
        let service = XplainService::new(block_size_log(40));
        let before = service.explain(&request()).unwrap();
        assert_eq!(service.cached_view_count(), 1);

        // Mutate the log: push a record and rebuild the catalogs.
        service.with_log_mut(|log| {
            log.push(
                ExecutionRecord::job("job_extra")
                    .with_feature("inputsize", 64.0e9)
                    .with_feature("blocksize", 1024.0)
                    .with_feature("numinstances", 150.0)
                    .with_feature("duration", 600.0),
            );
            log.rebuild_catalogs();
        });
        // The stale view is gone immediately, not lazily.
        assert_eq!(service.cached_view_count(), 0);

        let after = service.explain(&request()).unwrap();
        assert!(after.generation > before.generation);
        assert!(!after.view_reused);

        // The answer matches a fresh engine over the mutated log: the stale
        // view was provably not served.
        let fresh = PerfXplain::with_defaults()
            .explain(&service.snapshot(), &after.query)
            .unwrap();
        assert_eq!(after.explanation, fresh);
    }

    #[test]
    fn wholesale_replacement_with_a_colliding_generation_is_not_served_stale() {
        // Two different logs can share a generation counter value; swapping
        // one in through `with_log_mut` must still drop the cached views.
        let log_a = block_size_log(40);
        let mut log_b = block_size_log(24);
        while log_b.generation() < log_a.generation() {
            log_b.rebuild_catalogs();
        }
        let log_b = log_b; // same generation as log_a, different contents

        let service = XplainService::new(log_a.clone());
        service.explain(&request()).unwrap();
        assert_eq!(service.cached_view_count(), 1);

        assert_eq!(log_b.generation(), log_a.generation());
        service.with_log_mut(|log| *log = log_b.clone());
        assert_eq!(service.cached_view_count(), 0);
        let outcome = service.explain(&request()).unwrap();
        assert!(!outcome.view_reused);
        let fresh = PerfXplain::with_defaults()
            .explain(&log_b, &outcome.query)
            .unwrap();
        assert_eq!(outcome.explanation, fresh);
    }

    #[test]
    fn replace_log_drops_every_cached_view() {
        let service = XplainService::new(block_size_log(40));
        service.explain(&request()).unwrap();
        assert_eq!(service.cached_view_count(), 1);
        service.replace_log(block_size_log(24));
        assert_eq!(service.cached_view_count(), 0);
        let outcome = service.explain(&request()).unwrap();
        assert!(!outcome.view_reused);
        assert_eq!(service.with_log(|log| log.jobs().count()), 24);
    }

    #[test]
    fn requests_carry_narration_assessment_and_overrides() {
        let service = XplainService::new(block_size_log(40));
        let outcome = service
            .explain(
                &request()
                    .with_config(ExplainConfig::default().with_width(2))
                    .with_narration()
                    .with_assessment(),
            )
            .unwrap();
        assert!(outcome.explanation.width() <= 2);
        assert!(outcome.narration.is_some());
        let quality = outcome.quality.expect("assessment requested");
        assert!(quality.precision.unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn invalid_requests_surface_descriptive_errors() {
        let service = XplainService::new(block_size_log(24));
        // Unparseable PXQL.
        assert!(service.explain(&QueryRequest::text("NONSENSE")).is_err());
        // Placeholder bindings without a pair of interest.
        assert!(service.explain(&QueryRequest::text(QUERY)).is_err());
        // Unknown executions.
        assert!(service
            .explain(&QueryRequest::text(QUERY).with_pair("job_4", "nope"))
            .is_err());
    }

    #[test]
    fn cancelled_requests_abort_with_typed_errors() {
        use crate::error::CoreError;
        let service = XplainService::new(block_size_log(40));
        // Fired before submission: the first cooperative check aborts.
        let token = CancelToken::new();
        token.cancel();
        let err = service
            .explain(&request().with_cancel(token))
            .expect_err("cancelled request must not produce an outcome");
        assert_eq!(err, CoreError::Cancelled);
        // An already-expired deadline surfaces as the timeout error.
        let err = service
            .explain(&request().with_timeout(std::time::Duration::ZERO))
            .expect_err("expired request must not produce an outcome");
        assert_eq!(err, CoreError::DeadlineExceeded);
        // A generous deadline leaves the answer untouched.
        let outcome = service
            .explain(&request().with_timeout(std::time::Duration::from_secs(3600)))
            .unwrap();
        assert_eq!(
            outcome.explanation,
            service.explain(&request()).unwrap().explanation
        );
    }

    #[test]
    fn cost_estimates_follow_the_plan_statistics() {
        let service = XplainService::new(block_size_log(40));
        let estimate = service.estimate_cost(&request()).unwrap();
        assert_eq!(estimate.rows, 40);
        assert_eq!(estimate.scanned_pairs, 40 * 39);
        assert!(estimate.training_cells > 0);
        assert!(estimate.units() >= 1);
        // No view is built by estimation.
        assert_eq!(service.cached_view_count(), 0);

        // A bigger log costs more; the candidate cap bounds the estimate
        // exactly like it bounds the real scan.
        let big = XplainService::new(block_size_log(2000));
        let uncapped = big.estimate_cost(&request()).unwrap();
        assert!(uncapped.units() > estimate.units());
        let capped = big
            .estimate_cost(&request().with_config(ExplainConfig {
                max_candidate_pairs: 10_000,
                ..ExplainConfig::default()
            }))
            .unwrap();
        assert_eq!(capped.scanned_pairs, 10_000);
        assert!(capped.units() < uncapped.units());
        // Unresolvable queries fail at estimation, not at admission.
        assert!(service
            .estimate_cost(&QueryRequest::text("NONSENSE"))
            .is_err());
    }

    /// More records shaped like [`block_size_log`]'s, for appending.
    fn extra_jobs(start: usize, n: usize) -> Vec<ExecutionRecord> {
        (start..start + n)
            .map(|i| {
                let big_blocks = i % 2 == 0;
                let big_cluster = i % 3 != 0;
                let input: f64 = if i % 4 < 2 { 32.0e9 } else { 1.0e9 };
                let duration = if big_blocks && big_cluster {
                    600.0
                } else {
                    input / (if big_cluster { 150.0 } else { 4.0 } * 2.0e7)
                };
                ExecutionRecord::job(format!("job_{i}"))
                    .with_feature("inputsize", input)
                    .with_feature("blocksize", if big_blocks { 1024.0 } else { 64.0 })
                    .with_feature("numinstances", if big_cluster { 150.0 } else { 4.0 })
                    .with_feature("duration", duration)
            })
            .collect()
    }

    #[test]
    fn appends_refresh_the_cached_view_by_delta() {
        let service = XplainService::new(block_size_log(40));
        let before = service.explain(&request()).unwrap();
        assert_eq!(service.view_stats().full_rebuilds, 1);

        let outcome = service.append(extra_jobs(40, 10)).unwrap();
        assert_eq!(outcome.appended, 10);
        // The cached view survives the append (schema unchanged) ...
        assert_eq!(service.cached_view_count(), 1);

        let after = service.explain(&request()).unwrap();
        assert!(after.generation > before.generation);
        let stats = service.view_stats();
        assert_eq!(stats.delta_refreshes, 1);
        assert_eq!(stats.full_rebuilds, 1);
        assert_eq!(stats.base_rows, 40);
        assert_eq!(stats.tail_rows, 10);

        // ... and the delta-refreshed answer equals a fresh engine over the
        // grown log: the tail is provably part of the served view.
        let fresh = PerfXplain::with_defaults()
            .explain(&service.snapshot(), &after.query)
            .unwrap();
        assert_eq!(after.explanation, fresh);
        // The next query hits the refreshed view outright.
        assert!(service.explain(&request()).unwrap().view_reused);
    }

    #[test]
    fn appends_with_a_new_feature_fall_back_to_a_full_rebuild() {
        let service = XplainService::new(block_size_log(40));
        service.explain(&request()).unwrap();
        assert_eq!(service.cached_view_count(), 1);

        // A record carrying a feature the job catalog has never seen moves
        // the schema: the cached job view is stale beyond delta repair.
        service
            .append(vec![ExecutionRecord::job("job_oddball")
                .with_feature("inputsize", 1.0e9)
                .with_feature("blocksize", 64.0)
                .with_feature("numinstances", 4.0)
                .with_feature("duration", 10.0)
                .with_feature("brand_new_knob", 7.0)])
            .unwrap();
        assert_eq!(service.cached_view_count(), 0);

        let after = service.explain(&request()).unwrap();
        assert!(!after.view_reused);
        let stats = service.view_stats();
        assert_eq!(stats.full_rebuilds, 2);
        assert_eq!(stats.delta_refreshes, 0);
        let fresh = PerfXplain::with_defaults()
            .explain(&service.snapshot(), &after.query)
            .unwrap();
        assert_eq!(after.explanation, fresh);
    }

    #[test]
    fn compact_views_folds_the_tail_without_changing_answers() {
        let service = XplainService::new(block_size_log(40));
        service.explain(&request()).unwrap();
        service.append(extra_jobs(40, 8)).unwrap();
        let delta = service.explain(&request()).unwrap();
        assert_eq!(service.view_stats().tail_rows, 8);

        assert_eq!(service.compact_views(), 1);
        let stats = service.view_stats();
        assert_eq!(stats.tail_rows, 0);
        assert_eq!(stats.base_rows, 48);
        assert_eq!(stats.compactions, 1);
        assert!(stats.last_compaction_unix_ms > 0);

        // The folded view serves the same generation and the same answer.
        let compacted = service.explain(&request()).unwrap();
        assert!(compacted.view_reused);
        assert_eq!(compacted.explanation, delta.explanation);
        assert_eq!(compacted.generation, delta.generation);
    }

    #[test]
    fn oversized_tails_are_folded_in_the_background() {
        let service = XplainService::new(block_size_log(40))
            .with_compaction_policy(CompactionPolicy { tail_limit: 4 });
        service.explain(&request()).unwrap();
        service.append(extra_jobs(40, 8)).unwrap();
        // This refresh splices an 8-row tail — past the limit, so a
        // background fold is scheduled on the shared pool.
        service.explain(&request()).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while service.view_stats().tail_rows > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "background compaction never landed"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let stats = service.view_stats();
        assert_eq!(stats.base_rows, 48);
        assert!(stats.compactions >= 1);
        // Queries keep working over the folded view.
        assert!(service.explain(&request()).unwrap().view_reused);
    }

    #[test]
    fn queries_report_their_actual_related_pairs_through_the_probe() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let service = XplainService::new(block_size_log(40));
        let observed = Arc::new(AtomicU64::new(u64::MAX));
        let probe_target = Arc::clone(&observed);
        let outcome = service
            .explain(&request().with_cost_probe(CostProbe::new(move |pairs| {
                probe_target.store(pairs, Ordering::SeqCst);
            })))
            .unwrap();
        let fired = observed.load(Ordering::SeqCst);
        assert_ne!(fired, u64::MAX, "probe must fire");
        assert_eq!(fired, outcome.related_pairs);
        // The actual related-pair count is far below the candidate-space
        // upper bound charged at admission.
        let estimate = service.estimate_cost(&request()).unwrap();
        assert!(outcome.related_pairs <= estimate.scanned_pairs);
        assert!(outcome.related_pairs > 0);
    }

    #[test]
    fn checkpoints_persist_the_live_tail_incrementally() {
        let dir = std::env::temp_dir().join(format!("pxsvc_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = XplainService::new(block_size_log(40));
        let full = service.persist(&dir).unwrap();
        assert!(full.shards_encoded >= 1);
        let base_shards = full.manifest.shards.len();

        // Appends since the persist → the checkpoint writes one tail shard
        // and keeps every base shard verbatim.
        service.append(extra_jobs(40, 6)).unwrap();
        let incremental = service.checkpoint(&dir).unwrap();
        assert_eq!(incremental.shards_encoded, 1);
        assert_eq!(incremental.shards_reused, base_shards);
        assert_eq!(incremental.rows, 46);

        // The checkpointed store reopens to the served log, bit for bit.
        let reopened = XplainService::open_snapshot(&dir).unwrap();
        assert_eq!(reopened.snapshot(), service.snapshot());

        // A second checkpoint with nothing appended keeps everything.
        let idle = service.checkpoint(&dir).unwrap();
        assert_eq!(idle.shards_encoded, 0);
        assert_eq!(idle.shards_reused, base_shards + 1);

        // An arbitrary mutation invalidates the lineage: the next
        // checkpoint falls back to a full persist.
        service.with_log_mut(|log| log.rebuild_catalogs());
        let rewritten = service.checkpoint(&dir).unwrap();
        assert_eq!(rewritten.shards_reused, 0);
        assert!(rewritten.shards_encoded >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn journal_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pxsvc_jnl_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journal_requires_checkpoint_lineage() {
        use crate::error::CoreError;
        use crate::snapshot::FsyncPolicy;
        let dir = journal_dir("anchor");
        let service = XplainService::new(block_size_log(24));
        // No checkpoint yet: journal frames would have nothing to anchor to.
        let err = service
            .enable_journal(&dir, FsyncPolicy::Always)
            .unwrap_err();
        assert!(matches!(err, CoreError::JournalNotAnchored { .. }));
        // After a persist into the directory, enabling succeeds.
        service.persist(&dir).unwrap();
        service.enable_journal(&dir, FsyncPolicy::Always).unwrap();
        assert!(service.journal_stats().is_some());
        // A non-append mutation deactivates the journal.
        service.with_log_mut(|log| log.rebuild_catalogs());
        assert!(service.journal_stats().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_appends_survive_a_restart_and_reopen_warm() {
        use crate::snapshot::FsyncPolicy;
        let dir = journal_dir("recover");
        let service = XplainService::new(block_size_log(40));
        service.persist(&dir).unwrap();
        service.enable_journal(&dir, FsyncPolicy::Always).unwrap();
        let outcome = service.append(extra_jobs(40, 6)).unwrap();
        assert!(outcome.durable, "fsync=Always must ack durable");
        let outcome = service.append(extra_jobs(46, 4)).unwrap();
        assert!(outcome.durable);
        let stats = service.journal_stats().unwrap();
        assert_eq!(stats.frames_appended, 2);
        assert_eq!(stats.fsyncs, 2);

        // "Crash": drop the service without a checkpoint.  The reopened
        // store replays the journal over the manifest...
        let expected = service.snapshot();
        drop(service);
        let reopened = XplainService::open_snapshot(&dir).unwrap();
        assert_eq!(reopened.snapshot(), expected);
        // ... and the first query is served from the replayed tail: the
        // snapshot's pre-cached view was delta-refreshed, never rebuilt.
        let before = reopened.view_stats();
        assert_eq!(before.full_rebuilds, 0);
        assert_eq!(before.tail_rows, 10);
        let answer = reopened.explain(&request()).unwrap();
        assert!(answer.view_reused);
        assert_eq!(reopened.view_stats().full_rebuilds, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_journal_resumes_and_keeps_protecting_replayed_frames() {
        use crate::snapshot::FsyncPolicy;
        let dir = journal_dir("resume");
        let service = XplainService::new(block_size_log(40));
        service.persist(&dir).unwrap();
        service.enable_journal(&dir, FsyncPolicy::Always).unwrap();
        service.append(extra_jobs(40, 6)).unwrap();
        drop(service);

        // First restart: replay, re-enable (resumes after the replayed
        // frame), append more, crash again without ever checkpointing.
        let restarted = XplainService::open_snapshot(&dir).unwrap();
        restarted.enable_journal(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(restarted.journal_stats().unwrap().frames_replayed, 1);
        restarted.append(extra_jobs(46, 4)).unwrap();
        let expected = restarted.snapshot();
        drop(restarted);

        // Second restart: both the pre-crash frame and the post-restart
        // frame replay — resuming never dropped the first one.
        let recovered = XplainService::open_snapshot(&dir).unwrap();
        assert_eq!(recovered.snapshot(), expected);
        assert_eq!(recovered.with_log(|log| log.len()), 50);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_rotate_the_journal_and_appends_before_enable_catch_up() {
        use crate::snapshot::FsyncPolicy;
        let dir = journal_dir("rotate");
        let service = XplainService::new(block_size_log(40));
        service.persist(&dir).unwrap();
        service
            .enable_journal(&dir, FsyncPolicy::OnCheckpoint)
            .unwrap();
        let outcome = service.append(extra_jobs(40, 6)).unwrap();
        assert!(!outcome.durable, "OnCheckpoint never fsyncs on append");
        let before = service.journal_stats().unwrap();
        assert_eq!(before.frames_appended, 1);

        // The checkpoint absorbs the tail into a segment and rotates the
        // journal: the old frames are gone, the cursor is back at the
        // header, and the rotation generation is the served log's, as
        // recorded in the manifest.
        let report = service.checkpoint(&dir).unwrap();
        let after = service.journal_stats().unwrap();
        assert!(after.bytes < before.bytes);
        assert_eq!(after.last_rotation_generation, service.generation());
        assert_eq!(report.manifest.generation, service.generation());

        // The next incremental checkpoint records the generation the
        // append in between moved the log to.
        let first_generation = service.generation();
        service.append(extra_jobs(100, 2)).unwrap();
        let report = service.checkpoint(&dir).unwrap();
        assert!(service.generation() > first_generation);
        assert_eq!(
            service.journal_stats().unwrap().last_rotation_generation,
            service.generation()
        );
        assert_eq!(report.manifest.generation, service.generation());

        // A crash right after the checkpoint loses nothing: the manifest
        // covers everything and the fresh journal is empty.
        let expected = service.snapshot();
        drop(service);
        let reopened = XplainService::open_snapshot(&dir).unwrap();
        assert_eq!(reopened.snapshot(), expected);

        // Records appended before `enable_journal` are bridged into the
        // journal at enable time, so they too survive a crash.
        reopened.append(extra_jobs(46, 3)).unwrap();
        reopened.enable_journal(&dir, FsyncPolicy::Always).unwrap();
        let expected = reopened.snapshot();
        drop(reopened);
        let recovered = XplainService::open_snapshot(&dir).unwrap();
        assert_eq!(recovered.snapshot(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interleaved_kind_appends_leave_the_other_kinds_view_untouched() {
        // The mixed-kind append-storm gap: appending tasks must not force
        // the cached job view to rescan (or rebuild over) the job rows.
        let service = XplainService::new(block_size_log(40));
        service.explain(&request()).unwrap();
        assert_eq!(service.view_stats().full_rebuilds, 1);

        for i in 0..5 {
            service
                .append(vec![ExecutionRecord::task(format!("task_{i}"), "job_0")
                    .with_feature("duration", 5.0)])
                .unwrap();
            // The job view answers without a delta splice or rebuild: the
            // per-kind row count shows nothing of its kind arrived.
            let answer = service.explain(&request()).unwrap();
            assert!(answer.view_reused);
        }
        let stats = service.view_stats();
        assert_eq!(stats.full_rebuilds, 1);
        assert_eq!(stats.delta_refreshes, 0);

        // Job appends still delta-refresh as before.
        service.append(extra_jobs(40, 4)).unwrap();
        service.explain(&request()).unwrap();
        let stats = service.view_stats();
        assert_eq!(stats.full_rebuilds, 1);
        assert_eq!(stats.delta_refreshes, 1);
    }

    #[test]
    fn par_explain_batch_matches_the_serial_path() {
        let service = XplainService::new(block_size_log(40));
        let requests: Vec<QueryRequest> = (0..8)
            .map(|i| {
                let (left, right) = if i % 2 == 0 {
                    ("job_4", "job_2")
                } else {
                    ("job_16", "job_2")
                };
                QueryRequest::text(QUERY).with_pair(left, right)
            })
            .collect();
        let serial: Vec<_> = requests.iter().map(|r| service.explain(r)).collect();
        let parallel = service.par_explain_batch(&requests);
        assert_eq!(parallel.len(), serial.len());
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.explanation, p.explanation);
            assert_eq!(s.query, p.query);
        }
        // One job view serves the whole batch.
        assert_eq!(service.cached_view_count(), 1);
    }
}
