//! PerfXplain: explain the relative performance of MapReduce jobs and tasks.
//!
//! This crate is a faithful reproduction of the system described in
//! *"PerfXplain: Debugging MapReduce Job Performance"* (Khoussainova,
//! Balazinska, Suciu — VLDB 2012).  Given
//!
//! * an **execution log** of past MapReduce job and task executions, each
//!   represented as a flat vector of features (configuration parameters,
//!   data characteristics, Hadoop counters, averaged Ganglia metrics and the
//!   runtime itself), and
//! * a **PXQL query** identifying a pair of executions and stating what was
//!   observed and what was expected,
//!
//! it produces an **explanation**: a pair of predicates over *pair features*
//! (a despite clause and a because clause) chosen to be applicable to the
//! pair of interest, precise, general and relevant.
//!
//! # Quick example
//!
//! An investigation is a *session*: many PXQL queries against one log.  The
//! [`XplainService`] is the entry point built for that — it owns the log,
//! caches its columnar encoding per `(generation, kind)`, and answers each
//! [`QueryRequest`] (parse + bind + explain + narrate + assess) in one
//! call, concurrently if asked ([`XplainService::par_explain_batch`]):
//!
//! ```
//! use perfxplain_core::{ExecutionLog, ExecutionRecord, QueryRequest, XplainService};
//!
//! // A miniature execution log: jobs with big blocks finish in ~600 s
//! // regardless of their input size.
//! let mut log = ExecutionLog::new();
//! for i in 0..30 {
//!     let big_blocks = i % 2 == 0;
//!     let input: f64 = if i % 4 < 2 { 32.0e9 } else { 1.0e9 };
//!     let duration = if big_blocks { 600.0 } else { input / 5.0e7 };
//!     log.push(
//!         ExecutionRecord::job(format!("job_{i}"))
//!             .with_feature("inputsize", input)
//!             .with_feature("blocksize", if big_blocks { 1024.0 } else { 64.0 })
//!             .with_feature("duration", duration),
//!     );
//! }
//! log.rebuild_catalogs();
//!
//! // "Despite reading much more data, job_0 was not slower than job_2. Why?"
//! let service = XplainService::new(log);
//! let request = QueryRequest::text(
//!     "DESPITE inputsize_compare = GT\n\
//!      OBSERVED duration_compare = SIM\n\
//!      EXPECTED duration_compare = GT",
//! )
//! .with_pair("job_0", "job_2");
//!
//! let outcome = service.explain(&request).unwrap();
//! assert!(outcome.explanation.width() >= 1);
//! println!("{}", outcome.explanation);
//!
//! // Repeats (any pair, any query of the same kind) reuse the cached
//! // encoding; mutations bump the log's generation and invalidate it.
//! assert!(service.explain(&request).unwrap().view_reused);
//! service.with_log_mut(|log| log.rebuild_catalogs());
//! assert!(!service.explain(&request).unwrap().view_reused);
//! ```
//!
//! For one-off questions the stateless [`PerfXplain`] engine
//! (`engine.explain(&log, &bound)`) remains available; it is a thin wrapper
//! over a single-shot pass through the same [`service`] code path.
//!
//! # Performance
//!
//! Explanation generation is dominated by two costs: encoding the log into
//! its columnar view, and classifying O(n²) candidate pairs against the
//! query.  The pipeline attacks both with a **sharded, columnar, streaming,
//! zero-re-encoding hot path** ([`columnar`], [`training`], [`bridge`],
//! [`record`]), and getting *to* that hot path — and staying on it while
//! new executions stream in — is a **six-tier story**:
//!
//! | tier | start state | cost |
//! |---|---|---|
//! | cold JSON ingest | raw bundles or a JSON log | parse + catalog inference + full columnar encode |
//! | snapshot open | a [`snapshot`] directory | read + fingerprint-verify + decode binary columns; **no parsing, no re-encode** |
//! | warm service cache | a running [`XplainService`] | `Arc` clone of the cached view; zero work |
//! | live append | a running service ingesting | O(tail) splice of the fresh records into the cached view's **append tail**; base columns `Arc`-shared untouched |
//! | durable append | a service with the journal enabled | one checksummed frame written to `journal.bin` before the ack, fsynced per [`FsyncPolicy`]; replayed through the delta path on restart |
//! | networked serving | a `perfxplain-server` front-end | one admission-time [`estimate_cost`](service::XplainService::estimate_cost) per request; queries share the warm cache |
//!
//! A deployment pays tier 1 once per *source* change (and, with
//! incremental [`snapshot::sync`], only for the shards whose source
//! actually changed), tier 2 once per process start, and tier 3 on every
//! query; tier 4 keeps the cache warm *through* ingest — an
//! [`XplainService::append`](service::XplainService::append) never costs a
//! re-encode, only an O(tail) delta refresh on the next query; tier 5
//! makes those acks *mean* something across a crash — with
//! [`enable_journal`](service::XplainService::enable_journal) every append
//! is framed and checksummed into a write-ahead journal before it is
//! acknowledged ([`AppendOutcome::durable`](service::AppendOutcome)
//! reports whether the frame was fsynced first), and a restart replays the
//! journal tail through the same delta path, so recovery resumes warm;
//! tier 6 wraps the warm service in a wire protocol so many remote
//! debugging sessions share one log — each request is admitted against a
//! concurrent cost budget computed from its compiled-plan statistics
//! ([`CostEstimate`](service::CostEstimate), no view built, no features
//! scanned), refunds the estimate/actual difference mid-flight once the
//! measured related-pair count is known
//! ([`CostProbe`](service::CostProbe),
//! [`CostEstimate::refined_units`](service::CostEstimate::refined_units)),
//! and carries a [`CancelToken`](cancel::CancelToken) deadline the
//! enumeration and clause loops observe at phase boundaries, so a serving
//! process stays bounded in both memory and per-request latency.
//!
//! 1. **Ingest sharded.** [`ExecutionLog::extend_parallel`] ingests record
//!    batches on concurrent threads (per-batch catalogs inferred in
//!    parallel, merged by [`FeatureCatalog::merge`]), and
//!    [`ExecutionLog::from_shards`] assembles independently collected shard
//!    logs without re-scanning them — `hadoop_logs::collect_bundles_sharded`
//!    parses history/conf/Ganglia bundles this way.  Both are exactly
//!    equivalent to the serial push-and-rebuild path.
//! 2. **Encode sharded, once.** [`ColumnarLog`](columnar::ColumnarLog)
//!    turns the per-kind records into per-feature columns: numeric cells
//!    inline, nominal cells interned by canonical PXQL text (formatted into
//!    a reused scratch buffer — no per-cell allocation) with the original
//!    [`pxql::Value`] retained per id.
//!    [`build_sharded`](columnar::ColumnarLog::build_sharded) splits the
//!    row space into contiguous segments, encodes each with a **local**
//!    dictionary on its own `std::thread::scope` thread, and merges the
//!    segments by dictionary remapping
//!    ([`mlcore::ColumnStore::merge_segments`]) into a view **bit-identical**
//!    to the single-shot build;
//!    [`build_auto`](columnar::ColumnarLog::build_auto) picks the shard
//!    count (one per core at ≥ [`SHARDED_BUILD_THRESHOLD`] rows), and the
//!    [`XplainService`](service::XplainService) builds its cached
//!    per-`(generation, kind)` views through it automatically.  The view is
//!    self-contained and `Arc`-shared, so every query — including the
//!    despite-extension pass and whole concurrent batches — runs with zero
//!    re-encoding.  Hot lookup maps (dictionary interning, `row_of`,
//!    `PairCatalog`) use a vendored deterministic [`mlcore::FxHashMap`]
//!    instead of SipHash.
//! 3. **Compile the query.** [`CompiledQuery`](columnar::CompiledQuery)
//!    resolves every clause atom to a `(column index, pair-feature group)`
//!    pair and pre-analyses its constant (`compare` atoms become a 3-entry
//!    truth table), so classifying one candidate pair is a handful of
//!    integer/float comparisons — no allocation, no string hashing, no
//!    `BTreeMap`.
//! 4. **Stream the enumeration, in parallel when it pays.**
//!    `collect_related_pairs` never materialises the candidate space:
//!    blocking groups and the deterministic cap (a stateless per-ordinal
//!    hash, so enumeration order and parallelism cannot change the outcome)
//!    are applied while streaming, and memory stays proportional to the
//!    *related* pairs.  On multi-core machines the outer record loop fans
//!    out over `std::thread::scope` threads automatically once the plan
//!    enumerates at least as many candidates as an unblocked
//!    [`PARALLEL_ENUMERATION_THRESHOLD`]-record log, with results
//!    bit-identical to the serial scan.
//! 5. **Encode the sample directly.**
//!    [`DatasetBridge::encode_from_view`](bridge::DatasetBridge::encode_from_view)
//!    derives the pair features of the sampled training pairs straight from
//!    the columns into the split-search [`mlcore::Dataset`];
//!    [`PairExample`] maps exist only at the API/narration boundary.
//! 6. **Train in O(n log n).**  The per-feature predicate search of
//!    Algorithm 1 ([`mlcore::best_split_for_attribute_filtered`]) is a
//!    single-sort sweep: values sorted once per (node, attribute), every
//!    candidate threshold/equality scored in O(1) from running prefix
//!    counts — the naive evaluator rescanned all rows per candidate,
//!    O(d·n), quadratic on continuous features.  The applicability filter
//!    (the pair of interest must satisfy every emitted predicate) is
//!    threaded through the sweep itself, the per-attribute searches of the
//!    greedy clause loop ([`PerfXplain`]) and of [`mlcore::best_split`] fan
//!    out over `shard::map_chunks` threads on large nodes, and Relief
//!    ([`mlcore::relief_weights`], behind the RuleOfThumb baseline) scans
//!    attribute-major over typed contiguous columns with its sampled
//!    instances fanned out the same way.  The pre-sweep trainer is retained
//!    as `mlcore::oracle` (tests/benches only) and the winners are
//!    proptest-proven bit-identical to it.
//! 7. **Persist the encoded form, compressed.** The [`snapshot`] store
//!    writes each shard as a length-prefixed binary segment file (format
//!    v2) under a manifest of FxHash content fingerprints, per-shard
//!    catalogs and per-shard byte accounting
//!    ([`SnapshotManifest::usage`](snapshot::SnapshotManifest::usage)):
//!
//!    ```text
//!    magic ─ version ─┬─ records block: id, kind, parent, exceptions
//!                     ├─ job columns:  schema + per-column compressed cells
//!                     └─ task columns: presence bitmap ─ kind tag
//!                                      ─ bit-packed dictionary ids
//!                                      ─ FoR/delta/raw numeric stream
//!    ```
//!
//!    Columns compress via [`mlcore::ColumnStore::encode_binary`]
//!    (dictionary ids at ⌈log₂(dict len)⌉ bits, integral numerics
//!    frame-of-reference/delta coded, a raw fallback that keeps NaN/±inf/
//!    −0.0 bit-exact), and the records block stores **only** the features
//!    the columns cannot reproduce bit-exactly (`Null` values,
//!    canonical-text collisions) — everything else is rebuilt from the
//!    columns on open, which is where the ≥2× on-disk shrink comes from.
//!    A cold start ([`snapshot::open`] →
//!    [`Snapshot::into_views`](snapshot::Snapshot::into_views), or
//!    [`XplainService::open_snapshot`](service::XplainService::open_snapshot)
//!    for a pre-warmed service) loads segments on concurrent threads,
//!    stitches them with the same dictionary-remapping merge as the
//!    sharded encode — bit-identical to encoding from scratch — and
//!    **moves** the decoded `Arc`-backed column buffers into the views
//!    (adopting them outright for single-segment snapshots), so peak open
//!    memory is approximately the final views, not a multiple of them.
//!    Incremental re-ingest ([`snapshot::sync`]) fingerprints each shard's
//!    source and re-encodes only the dirty shards; a changed global
//!    catalog re-encodes everything from on-disk records, still never
//!    re-parsing the source.
//! 8. **Append live, refresh by delta.**
//!    [`XplainService::append`](service::XplainService::append) extends the
//!    served log *without* invalidating the cached views: the next query
//!    splices the fresh records into a small **append-tail segment**
//!    ([`ColumnarLog::with_appended`](columnar::ColumnarLog::with_appended)
//!    over [`mlcore::ColumnStore::splice_tail`]) — dictionaries extend in
//!    place, the base columns stay `Arc`-shared byte for byte, and the
//!    refresh costs O(tail) instead of O(log).  Per-kind **rewrite
//!    watermarks** ([`ExecutionLog::rewrite_generation`]) keep the shortcut
//!    sound: an append whose batch changes the catalog, and every
//!    non-append mutation ([`XplainService::with_log_mut`]), move the
//!    watermark and force a full rebuild.  Tail lookups win over shadowed
//!    base rows (duplicate ids behave exactly like a rebuild), queries see
//!    base and tail as one view, and a tail that outgrows the configurable
//!    [`CompactionPolicy`](service::CompactionPolicy) folds back into its
//!    base ([`ColumnarLog::compacted`](columnar::ColumnarLog::compacted),
//!    [`mlcore::ColumnStore::concat_encoded`]) on the shared worker pool in
//!    the background.  [`XplainService::checkpoint`](service::XplainService::checkpoint)
//!    persists the live tail as one incremental snapshot shard
//!    ([`snapshot::sync_append`], [`ShardInput::Keep`](snapshot::ShardInput::Keep)
//!    for the clean prefix) — a checkpoint while serving, no stop-the-world
//!    re-encode.  [`ViewCacheStats`](service::ViewCacheStats) counts delta
//!    refreshes vs full rebuilds vs compactions
//!    ([`XplainService::view_stats`](service::XplainService::view_stats)).
//! 9. **Recover in layers, cheapest remedy first.** Transient IO errors
//!    (interrupted, would-block, timed-out) are absorbed *in place*: every
//!    snapshot read, write and rename retries with bounded exponential
//!    backoff before surfacing [`CoreError::SnapshotIo`], and
//!    [`SyncReport::io_retries`](snapshot::SyncReport::io_retries) counts
//!    what was absorbed.  Every read of segment files goes through **one
//!    shard scan**, at one of two depths — the content fingerprint alone,
//!    or the fingerprint plus a full decode checked against the manifest —
//!    so a damaged shard fails with the same typed error whichever entry
//!    point reads it: the strict [`snapshot::open`], the salvage open, the
//!    read-only [`snapshot::verify`], or a commit keeping the shard.  A
//!    store the strict open rejects as corrupt is *salvaged* next
//!    ([`snapshot::open_salvage`],
//!    [`XplainService::open_snapshot_salvage`](service::XplainService::open_snapshot_salvage)):
//!    the same scan verifies every shard independently, damaged segments
//!    are **quarantined** — renamed aside, never deleted — and the healthy
//!    shards keep serving as a
//!    [`PartialSnapshot`](snapshot::PartialSnapshot) while a targeted
//!    [`snapshot::sync`] re-encodes *only* the quarantined shards from
//!    source.  A full re-ingest is the **last resort**, reserved for
//!    stores salvage cannot read at all: an unusable manifest, or a v1
//!    store reporting [`CoreError::SnapshotVersionSkew`].
//!    [`snapshot::verify`] audits every fingerprint read-only (CLI
//!    `perfxplain snapshot verify`); every write goes through one commit
//!    path ([`snapshot::persist`], [`snapshot::sync`] and
//!    [`snapshot::sync_append`] alike).  Under `--features failpoints`
//!    every one of these IO sites carries a named fault-injection point
//!    the chaos suite drives.
//! 10. **Journal acknowledged appends; replay them on restart.** The
//!     write-ahead journal
//!     ([`XplainService::enable_journal`](service::XplainService::enable_journal))
//!     closes the durability gap between checkpoints: every append writes a
//!     length-prefixed, checksum-framed record batch to `journal.bin` in
//!     the snapshot directory *before* the ack, fsynced per
//!     [`FsyncPolicy`] (`Always` / `EveryN` /
//!     `OnCheckpoint`), and [`AppendOutcome::durable`](service::AppendOutcome)
//!     — surfaced on the wire as the append response's `durable` flag —
//!     says whether *this* ack survives a crash.  On open (strict or
//!     salvage) the journal is replayed after the manifest: frames record
//!     the log position they were acked at, so already-checkpointed frames
//!     skip, a torn or bit-rotted tail **truncates at the last valid
//!     frame** (typed, never a panic, never a count-sized allocation), and
//!     the replayed batches splice through the same
//!     [`with_appended`](columnar::ColumnarLog::with_appended) delta path
//!     as live appends — the restarted service answers its first query
//!     warm, tail already in the views.  [`XplainService::checkpoint`] and
//!     [`XplainService::persist`](service::XplainService::persist) rotate
//!     the journal atomically (fresh journal staged before the manifest
//!     rename, reset only after the commit), so journal bytes only ever
//!     describe the tail beyond the snapshot.  [`verify_journal`]
//!     audits frame checksums read-only alongside [`snapshot::verify`],
//!     [`JournalStats`] (bytes, frames appended /
//!     replayed / truncated, fsyncs, last rotation generation) feeds the
//!     server's `status` probe, and the journal's write / fsync / replay
//!     paths run through the same transient-retry and failpoint machinery
//!     as the snapshot store.  The invariant is proven both ways: a
//!     crash-prefix proptest damages the journal at arbitrary byte offsets
//!     and asserts exactly the acked prefix recovers, and the CI
//!     crash-recovery smoke SIGKILLs a journaled server mid-storm and
//!     asserts zero acked-durable records lost.
//!
//! **Invariants.** The columnar path produces the same related-pair set,
//! labels, dataset and explanations as the map-based path
//! (`compute_pair_features` + [`DatasetBridge::build`](bridge::DatasetBridge::build),
//! both retained as the reference implementation); the sharded
//! ingest/encode paths produce logs and views bit-identical to their
//! single-shot counterparts for every shard count; and a persisted
//! snapshot reopens to the same log and bit-identical views
//! (`build_from_snapshot(persist(log)) ≡ build_sharded(log, ..)`), with
//! one-dirty-shard syncs re-encoding exactly one segment; and the
//! delta-maintained live views are equivalent to never having cached at
//! all — under arbitrary interleavings of appends (catalog-preserving and
//! catalog-changing), non-append mutations, tail compactions and queries,
//! the view the service serves is bit-identical to a from-scratch
//! `build_sharded` of the log at that moment, and the answers match a
//! stateless engine's.
//! `tests/properties.rs` proves all of these on randomized logs, queries
//! and shard counts, and `tests/snapshot_store.rs` pins the corruption
//! taxonomy (truncation, fingerprint mismatch, version skew → typed
//! [`CoreError`]s), that every corruption is salvageable (lenient open
//! quarantines exactly the damaged shard and serves the rest) and
//! manifest-order authority.  Nominal
//! interning is keyed by canonical text, so two raw values that differ
//! textually but compare equal under PXQL's cross-type rules (`Bool(true)`
//! vs the string `"true"`) diverge — canonical log producers never mix
//! value types within a feature.  When the candidate space exceeds
//! `max_candidate_pairs` the subsample differs from the seed
//! implementation's (hash-based vs sequential RNG), but is equally
//! deterministic for a fixed seed.
//!
//! `cargo bench --bench pairs_pipeline` tracks pair-classification
//! throughput and candidate memory at n ∈ {100, 1k, 10k}, cached-view reuse
//! at n = 20k, sharded ingest+encode wall time at n ∈ {100k, 1M} for
//! shards ∈ {1, 2, 4, 8}, the cold-start comparison (JSON re-parse vs
//! snapshot open) at n ∈ {100k, 1M}, a despite-blocked enumeration over
//! 100k records, and the `explain_latency` phase breakdown (enumerate /
//! featurize / relief / tree at n ∈ {20k, 100k}, with the retained naive
//! trainer timed against the sweep trainer on the identical dataset and
//! cross-checked equal), and the `live_ingest` scenario (sustained append
//! batches against a served log at n ∈ {100k, 1M}: the O(tail) delta
//! refresh vs the full re-encode a non-delta cache would pay per append,
//! plus the sustained append rate and warm query latency while serving),
//! all in `BENCH_pairs.json` (alongside the
//! machine's hardware thread count — sharded speedups are real
//! parallelism, so they track the core count and degenerate to ~1x on a
//! single core).  CI additionally runs release-mode smokes under
//! wall-clock ceilings: the sharded 100k ingest+query round trip, the
//! snapshot persist → reopen → query round trip checked outcome-equal to
//! the in-memory path, the blocked 100k explain (cold + warm) on a
//! trainer-heavy log, and the append-while-serving loop (every batch must
//! refresh by delta, with the mean refresh under a fixed fraction of one
//! full re-encode).

pub mod baselines;
pub mod bridge;
pub mod cancel;
pub mod columnar;
pub mod config;
pub mod error;
pub mod eval;
pub mod explain;
pub mod explanation;
pub mod features;
pub mod levels;
pub mod metrics;
pub mod narrate;
pub mod pairs;
pub mod query;
pub mod record;
pub mod service;
pub mod snapshot;
pub mod training;

// The scoped-thread fan-out primitive now lives in `mlcore` (so the split
// search and Relief can fan out too); re-export it under its historical
// path — `perfxplain_core::shard::map_chunks` keeps working unchanged.
// The bounded worker pool sits beside it: servers build their own, batch
// APIs share `pool::shared()`.
pub use mlcore::pool;
pub use mlcore::shard;

// The fault-injection registry (a no-op unless the `failpoints` feature is
// on) is re-exported so the chaos suite and the server crate script the
// same sites the snapshot store triggers.
pub use mlcore::failpoints;

pub use baselines::{RuleOfThumb, SimButDiff};
pub use cancel::CancelToken;
pub use columnar::{ColumnarLog, CompiledPredicate, CompiledQuery, SHARDED_BUILD_THRESHOLD};
pub use config::ExplainConfig;
pub use error::{CoreError, Result};
pub use eval::{
    evaluate_on_log, generate_explanation, split_log, train_test_round, Aggregate,
    EvaluationResult, Technique,
};
pub use explain::PerfXplain;
pub use explanation::Explanation;
pub use features::{FeatureCatalog, FeatureDef, FeatureKind, DURATION_FEATURE};
pub use levels::FeatureLevel;
pub use metrics::{assess, generality, precision, relevance, ExplanationQuality, MetricEstimate};
pub use narrate::narrate;
pub use pairs::{
    compute_pair_features, PairCatalog, PairExample, PairFeatureGroup, DEFAULT_SIM_THRESHOLD,
};
pub use query::{BoundQuery, PairLabel};
pub use record::{ExecutionKind, ExecutionLog, ExecutionRecord};
pub use service::{
    AppendOutcome, CompactionPolicy, CostEstimate, CostProbe, QueryInput, QueryOutcome,
    QueryRequest, ViewCacheStats, XplainService,
};
pub use snapshot::{
    verify_journal, FsyncPolicy, JournalHealth, JournalStats, PartialSnapshot, RecordShard,
    ShardDamage, ShardEntry, ShardHealth, ShardInput, Snapshot, SnapshotManifest, SnapshotShard,
    SnapshotUsage, SnapshotViews, SyncReport, SNAPSHOT_VERSION,
};
pub use training::{
    collect_related_pairs_in, prepare_encoded_training, prepare_encoded_training_in,
    prepare_training_set, EncodedTraining, TrainingSet, PARALLEL_ENUMERATION_THRESHOLD,
};

// Re-export the query language so that downstream users only need one
// dependency.
pub use pxql;
