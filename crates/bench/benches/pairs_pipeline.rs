//! Pair-classification throughput benchmark and perf-trajectory emitter.
//!
//! Measures the streaming columnar training pipeline against the legacy
//! map-based pair classification at log sizes n ∈ {100, 1k, 10k}, the
//! `service_reuse` scenario (k queries against one cached [`XplainService`]
//! view vs k cold `explain` calls), the sharded ingest+encode scenarios at
//! n ∈ {100k, 1M} (sharded vs single-shot wall time, shards ∈ {1, 2, 4, 8}),
//! the blocked-enumeration scenario at n = 100k and the `explain_latency`
//! scenario (per-query phase breakdown plus the retained naive trainer vs
//! the sweep trainer on the identical training dataset, n ∈ {20k, 100k}),
//! the `serve_qps` scenario (an open-loop many-client drive against the
//! in-process network front-end under a deliberately tight admission
//! budget: qps, latency percentiles and shed counts), the `live_ingest`
//! scenario (sustained append batches against a served log at
//! n ∈ {100k, 1M}: delta view refresh vs the full re-encode a non-delta
//! cache would pay),
//! and writes `BENCH_pairs.json` (pairs/sec, candidate-memory footprint,
//! speedups, the parallel-enumeration threshold) so future PRs can track
//! the trend.  Run with `cargo bench --bench pairs_pipeline`.

use perfxplain_core::columnar::{ColumnarLog, CompiledQuery};
use perfxplain_core::training::{collect_related_pairs_in, PARALLEL_ENUMERATION_THRESHOLD};
use perfxplain_core::{
    BoundQuery, ExecutionKind, ExecutionLog, ExecutionRecord, ExplainConfig, FsyncPolicy,
    PerfXplain, QueryRequest, XplainService,
};
use serde::Serialize;
use std::time::Instant;

/// One measured point of the trajectory.
#[derive(Debug, Serialize)]
struct PairsBenchPoint {
    /// Number of log records.
    n: usize,
    /// Whether `max_candidate_pairs` was lifted for this point.  Uncapped
    /// points classify every enumerated pair on both paths, so their
    /// throughput numbers are a like-for-like comparison; the capped point
    /// measures streaming enumeration (hash-skip included) under the
    /// default production cap.
    capped: bool,
    /// Ordered candidate pairs enumerated (the full n·(n-1) space).
    enumerated: u64,
    /// Related pairs found.
    related: usize,
    /// Streaming columnar path: enumerated candidate pairs per second
    /// (equal to classified pairs per second when uncapped).
    streaming_pairs_per_sec: f64,
    /// Legacy map-based path: classified candidate pairs per second over
    /// the same uncapped candidate space (absent for sizes where the
    /// legacy path is prohibitively slow).
    map_based_pairs_per_sec: Option<f64>,
    /// Streaming ÷ map-based throughput (like-for-like: both uncapped).
    speedup: Option<f64>,
    /// Bytes the streaming path holds for candidate state: just the related
    /// pairs (24 B each) — bounded by the cap, independent of n².
    streaming_candidate_bytes: u64,
    /// Bytes the eager path would have materialised: n·(n-1) index pairs at
    /// 16 B each.
    eager_candidate_bytes: u64,
}

/// The `service_reuse` scenario: answering k queries against one cached
/// [`XplainService`] view vs k cold `PerfXplain::explain` calls (each of
/// which re-encodes the log).
#[derive(Debug, Serialize)]
struct ServiceReusePoint {
    /// Number of log records.
    n: usize,
    /// Raw features per record.
    features: usize,
    /// Queries answered (distinct pairs of interest).
    k: usize,
    /// Mean per-query wall time of the cold path (fresh view per call), ms.
    cold_ms_per_query: f64,
    /// Wall time of the service's first query (cache miss: builds the
    /// view), ms.
    service_first_query_ms: f64,
    /// Mean per-query wall time of queries 2..k on the warm service, ms.
    warm_ms_per_query: f64,
    /// cold ÷ warm: the payoff of reusing the cached view.
    speedup: f64,
}

/// One sharded ingest+encode measurement: a synthetic n-record log ingested
/// (`extend_parallel` over `shards` record batches) and encoded
/// (`ColumnarLog::build_sharded` with `shards` segments).  `shards = 1` is
/// the single-shot baseline the speedups are relative to.
#[derive(Debug, Serialize)]
struct ShardedEncodePoint {
    /// Number of log records.
    n: usize,
    /// Raw features per record.
    features: usize,
    /// Shard count (1 = single-shot baseline).
    shards: usize,
    /// Wall time of the sharded ingest (record batches → catalogs), ms.
    ingest_ms: f64,
    /// Wall time of the sharded columnar encode, ms.
    encode_ms: f64,
    /// Single-shot encode time ÷ this encode time.
    encode_speedup_vs_single: f64,
}

/// The `cold_start` scenario: time-to-first-queryable-view from a JSON log
/// (parse + re-encode, what every start paid before the snapshot store)
/// vs from a segmented binary snapshot (open + assemble stored columns).
#[derive(Debug, Serialize)]
struct ColdStartPoint {
    /// Number of log records.
    n: usize,
    /// Raw features per record.
    features: usize,
    /// Segments the snapshot was written with.
    shards: usize,
    /// Size of the JSON representation, bytes.
    json_bytes: u64,
    /// Total size of the snapshot directory (segments + manifest), bytes.
    snapshot_bytes: u64,
    /// JSON path: `ExecutionLog::from_json` + `ColumnarLog::build_auto`
    /// (parse, catalog rebuild, full re-encode), ms.
    json_parse_ms: f64,
    /// Snapshot path: `snapshot::open` (read + fingerprint-verify +
    /// decode) + `Snapshot::into_views` (adopt the decoded columns,
    /// no re-encode, no copy), ms.
    snapshot_open_ms: f64,
    /// json ÷ snapshot: the payoff of opening binary columns instead of
    /// re-parsing JSON.
    speedup: f64,
    /// Peak additional resident bytes during the snapshot open: the VmHWM
    /// delta of a freshly spawned probe process that does nothing but open
    /// the snapshot and adopt the views (0 when spawning or /proc is
    /// unavailable).
    peak_open_bytes: u64,
    /// Resident bytes the probe retains once the views are assembled (VmRSS
    /// delta over its pre-open baseline; 0 when unavailable).  Peak ≈
    /// resident means the open allocates no transient copies beyond the
    /// final views.
    open_resident_bytes: u64,
}

/// The `explain_latency` scenario: phase breakdown of one warm blocked
/// query on a trainer-heavy log (numeric group-level metrics give the
/// split-search dataset high-cardinality continuous base features), plus
/// the old-vs-new trainer comparison on the exact same training dataset —
/// the naive evaluator rescans all rows per candidate (O(d·n) per
/// attribute), the sweep sorts once (O(n log n)).
#[derive(Debug, Serialize)]
struct ExplainLatencyPoint {
    /// Number of log records.
    n: usize,
    /// Raw features per record.
    features: usize,
    /// Rows of the split-search dataset (the balanced training sample).
    training_rows: usize,
    /// Attributes of the split-search dataset (derived pair features).
    training_attrs: usize,
    /// Enumerate + classify + sample the related pairs, ms.
    enumerate_ms: f64,
    /// Encode the sampled pairs into the split-search dataset, ms.
    featurize_ms: f64,
    /// Columnar Relief over the training dataset, ms.
    relief_ms: f64,
    /// Sweep-trained reference decision tree over the training dataset, ms.
    tree_ms: f64,
    /// The retained naive Relief on the same dataset, ms.
    naive_relief_ms: f64,
    /// The retained naive-split tree fit on the same dataset, ms.
    naive_tree_ms: f64,
    /// (naive relief + naive tree) ÷ (columnar relief + sweep tree): the
    /// old-vs-new trainer ratio.
    trainer_speedup: f64,
    /// One full warm `explain` (verify + train + greedy clause growth)
    /// against the cached view, ms.
    explain_ms: f64,
}

/// The blocked-enumeration scenario: a despite clause with
/// `pigscript_isSame = T` restricts candidates to within-script groups, so
/// a 100k-record log enumerates ~n·(group-1) pairs instead of n².
#[derive(Debug, Serialize)]
struct BlockedEnumerationPoint {
    /// Number of log records.
    n: usize,
    /// Records per blocking group.
    group_size: usize,
    /// Candidates actually enumerated (within groups).
    enumerated: u64,
    /// The full n·(n-1) space blocking avoided.
    unblocked_space: u64,
    /// Related pairs found.
    related: usize,
    /// Enumeration + classification wall time, ms.
    elapsed_ms: f64,
}

/// The `serve_qps` scenario: an open-loop many-client workload against the
/// in-process network front-end.  Every connection issues requests back to
/// back, so the server sees a constant `connections`-deep request stream;
/// the admission budget is sized to roughly half that depth, so the run
/// exercises queueing *and* load shedding, not just the happy path.
#[derive(Debug, Serialize)]
struct ServeQpsPoint {
    /// Number of log records served.
    n: usize,
    /// Concurrent client connections.
    connections: usize,
    /// Back-to-back requests per connection.
    requests_per_connection: usize,
    /// Worker threads answering queries.
    workers: usize,
    /// Admission budget in cost units.
    budget_units: u64,
    /// Cost units one request is charged.
    request_units: u64,
    /// Requests sent.
    sent: u64,
    /// Success responses.
    ok: u64,
    /// Admission rejections (429).
    shed: u64,
    /// Deadline expirations (408).
    deadline: u64,
    /// Completed responses per second over the drive.
    qps: f64,
    /// Median latency of successful responses, ms.
    p50_ms: f64,
    /// 99th-percentile latency of successful responses, ms.
    p99_ms: f64,
}

/// The `live_ingest` scenario: sustained appends against a served log.
/// Each round appends a batch through [`XplainService::append`], refreshes
/// the cached view (the delta path: splice the batch into an append tail,
/// O(tail)), and answers one query against the refreshed view.  The
/// recorded baseline is what a non-delta cache would pay after *every*
/// append: a from-scratch re-encode of the whole log.
#[derive(Debug, Serialize)]
struct LiveIngestPoint {
    /// Number of log records served before the first append.
    n: usize,
    /// Raw features per record.
    features: usize,
    /// Records per append batch.
    batch: usize,
    /// Append+query rounds driven.
    rounds: usize,
    /// From-scratch re-encode of the n-record log (what every append would
    /// cost without delta maintenance), ms.
    full_rebuild_ms: f64,
    /// Mean view refresh after an append batch (the delta splice), ms.
    delta_refresh_ms: f64,
    /// full_rebuild ÷ delta_refresh: the payoff of delta maintenance.
    refresh_speedup: f64,
    /// Records ingested per second over the sustained loop (append +
    /// delta refresh, the full ingest cost a serving process pays).
    appends_per_sec: f64,
    /// Mean query latency against the freshly refreshed view, ms.
    mean_query_ms: f64,
    /// Tail rows held by the cached view after the loop (un-compacted).
    tail_rows: u64,
    /// Delta refreshes the service performed.
    delta_refreshes: u64,
    /// Full rebuilds the service performed (the initial build only —
    /// every append must stay on the delta path).
    full_rebuilds: u64,
    /// The append-journal fsync policy in force, or `None` when the point
    /// was measured un-journaled (PR 9 semantics: acks are in-memory only).
    fsync: Option<String>,
}

#[derive(Debug, Serialize)]
struct PairsBenchReport {
    description: String,
    /// Hardware threads the sharded/parallel numbers were measured with —
    /// on a single-core machine every sharded speedup degenerates to ~1x.
    hardware_threads: usize,
    /// Record count from which pair enumeration fans out.
    parallel_enumeration_threshold: usize,
    points: Vec<PairsBenchPoint>,
    service_reuse: ServiceReusePoint,
    sharded_encode: Vec<ShardedEncodePoint>,
    cold_start: Vec<ColdStartPoint>,
    blocked_enumeration: BlockedEnumerationPoint,
    explain_latency: Vec<ExplainLatencyPoint>,
    serve_qps: ServeQpsPoint,
    live_ingest: Vec<LiveIngestPoint>,
}

/// A synthetic log shaped like the paper's workload: two duration regimes
/// driven by block size, several numeric and nominal features.
fn synthetic_log(n: usize) -> ExecutionLog {
    let mut log = ExecutionLog::new();
    for i in 0..n {
        let big_blocks = i % 2 == 0;
        let input = [1.0e9, 4.0e9, 32.0e9][i % 3];
        let duration = if big_blocks {
            600.0 + (i % 13) as f64
        } else {
            input / 5.0e7 + (i % 7) as f64
        };
        log.push(
            ExecutionRecord::job(format!("job_{i}"))
                .with_feature("inputsize", input)
                .with_feature("blocksize", if big_blocks { 1024.0 } else { 64.0 })
                .with_feature("numinstances", [2.0, 8.0, 16.0][(i / 2) % 3])
                .with_feature("iosortfactor", 10.0 + (i % 3) as f64)
                .with_feature("pigscript", ["a.pig", "b.pig"][i % 2])
                .with_feature("duration", duration),
        );
    }
    log.rebuild_catalogs();
    log
}

fn query() -> BoundQuery {
    let q = pxql::parse_query(
        "DESPITE inputsize_compare = GT\n\
         OBSERVED duration_compare = SIM\n\
         EXPECTED duration_compare = GT",
    )
    .unwrap();
    BoundQuery::new(q, "job_0", "job_1")
}

/// The legacy hot path: a `BTreeMap<String, Value>` of selected pair
/// features rebuilt per candidate (what `collect_related_pairs` did before
/// the columnar pipeline).
fn run_map_based(log: &ExecutionLog, bound: &BoundQuery, config: &ExplainConfig) -> (u64, usize) {
    let records: Vec<&ExecutionRecord> = log.jobs().collect();
    let mut candidates = 0u64;
    let mut related = 0usize;
    for i in 0..records.len() {
        for j in 0..records.len() {
            if i == j {
                continue;
            }
            candidates += 1;
            let label = bound.classify_records(log, records[i], records[j], config.sim_threshold);
            if label.is_related() {
                related += 1;
            }
        }
    }
    (candidates, related)
}

fn measure(n: usize, measure_legacy: bool) -> PairsBenchPoint {
    let log = synthetic_log(n);
    let bound = query();
    // Like-for-like comparison points lift the cap so both paths classify
    // every enumerated pair; the large-n point keeps the production cap to
    // measure streaming enumeration (hash-skip included) and bounded
    // memory.
    let mut config = ExplainConfig::default();
    let capped = !measure_legacy;
    if !capped {
        config.max_candidate_pairs = usize::MAX;
    }

    // Streaming columnar path: encode once, then enumerate + classify.
    let view = ColumnarLog::build(&log, ExecutionKind::Job);
    // Warm up the compiled query path once.
    let _ = CompiledQuery::compile(&bound, &view, config.sim_threshold);
    let start = Instant::now();
    let related = collect_related_pairs_in(&view, &bound, &log, &config);
    let streaming_elapsed = start.elapsed().as_secs_f64();

    let total_candidates = (n as u64) * (n as u64 - 1);
    let streaming_pairs_per_sec = total_candidates as f64 / streaming_elapsed.max(1e-9);

    let map_based_pairs_per_sec = if measure_legacy {
        let start = Instant::now();
        let (legacy_candidates, _) = run_map_based(&log, &bound, &config);
        let elapsed = start.elapsed().as_secs_f64();
        Some(legacy_candidates as f64 / elapsed.max(1e-9))
    } else {
        None
    };

    PairsBenchPoint {
        n,
        capped,
        enumerated: total_candidates,
        related: related.len(),
        streaming_pairs_per_sec,
        speedup: map_based_pairs_per_sec.map(|m| streaming_pairs_per_sec / m),
        map_based_pairs_per_sec,
        streaming_candidate_bytes: related.len() as u64
            * std::mem::size_of::<perfxplain_core::training::RelatedPair>() as u64,
        eager_candidate_bytes: total_candidates * 16,
    }
}

/// k distinct bound queries over [`perfxplain_bench::blocked_log`]: same
/// query shape, a different pair of interest (and script group) each time.
fn service_queries(k: usize, group_size: usize) -> Vec<BoundQuery> {
    (0..k)
        .map(|q| {
            let query = pxql::parse_query(perfxplain_bench::BLOCKED_QUERY).unwrap();
            // Members 0 and 2 of each group are big-block jobs: larger
            // input, plateaued (similar) duration — a valid pair of
            // interest.
            let base = q * group_size;
            BoundQuery::new(query, format!("job_{}", base + 2), format!("job_{base}"))
        })
        .collect()
}

fn measure_service_reuse(n: usize, extra_features: usize, k: usize) -> ServiceReusePoint {
    let group_size = 10;
    let log = perfxplain_bench::blocked_log(n, group_size, extra_features);
    let features = log.job_catalog().len();
    let config = ExplainConfig::default().with_sample_size(200);
    let queries = service_queries(k, group_size);

    // Cold path: the stateless API re-encodes the log on every call.
    let engine = PerfXplain::new(config.clone());
    let cold_start = Instant::now();
    for bound in &queries {
        engine.explain(&log, bound).expect("cold explain succeeds");
    }
    let cold_ms_per_query = cold_start.elapsed().as_secs_f64() * 1e3 / k as f64;

    // Warm path: one service, k queries; the first builds the cached view,
    // the rest reuse it.
    let service = XplainService::with_config(log, config);
    let first_start = Instant::now();
    let first = service
        .explain(&QueryRequest::bound(queries[0].clone()))
        .expect("service explain succeeds");
    let service_first_query_ms = first_start.elapsed().as_secs_f64() * 1e3;
    assert!(!first.view_reused);
    let warm_start = Instant::now();
    for bound in &queries[1..] {
        let outcome = service
            .explain(&QueryRequest::bound(bound.clone()))
            .expect("service explain succeeds");
        assert!(outcome.view_reused, "warm query missed the view cache");
    }
    let warm_ms_per_query = warm_start.elapsed().as_secs_f64() * 1e3 / (k - 1) as f64;

    ServiceReusePoint {
        n,
        features,
        k,
        cold_ms_per_query,
        service_first_query_ms,
        warm_ms_per_query,
        speedup: cold_ms_per_query / warm_ms_per_query,
    }
}

/// The record batch behind one `synthetic_log(n)` record index, without the
/// log wrapper (so ingest scenarios can shard the batches freely).
fn synthetic_records(n: usize) -> Vec<ExecutionRecord> {
    synthetic_log(n).records().to_vec()
}

/// Measures sharded ingest+encode at one (n, shards) point.  `shards = 1`
/// ingests serially (push + rebuild) and encodes single-shot — that is the
/// baseline the sharded points are compared against.
fn measure_sharded_encode(
    records: &[ExecutionRecord],
    shards: usize,
    single_encode_ms: Option<f64>,
) -> ShardedEncodePoint {
    let n = records.len();

    let ingest_started = Instant::now();
    let log = if shards <= 1 {
        let mut log = ExecutionLog::new();
        for record in records {
            log.push(record.clone());
        }
        log.rebuild_catalogs();
        log
    } else {
        let chunk_size = n.div_ceil(shards).max(1);
        let batches: Vec<Vec<ExecutionRecord>> =
            records.chunks(chunk_size).map(<[_]>::to_vec).collect();
        let mut log = ExecutionLog::new();
        log.extend_parallel(batches);
        log
    };
    let ingest_ms = ingest_started.elapsed().as_secs_f64() * 1e3;

    let encode_started = Instant::now();
    let view = ColumnarLog::build_sharded(&log, ExecutionKind::Job, shards);
    let encode_ms = encode_started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(view.num_rows(), n);

    ShardedEncodePoint {
        n,
        features: log.job_catalog().len(),
        shards,
        ingest_ms,
        encode_ms,
        encode_speedup_vs_single: single_encode_ms.unwrap_or(encode_ms) / encode_ms,
    }
}

/// Sweeps shards ∈ {1, 2, 4, 8} at one log size.
fn measure_sharded_encode_sweep(n: usize, points: &mut Vec<ShardedEncodePoint>) {
    let records = synthetic_records(n);
    // One untimed pass first: the very first ingest+encode at a new size
    // pays page faults and allocator growth that later passes reuse, which
    // would otherwise inflate every sharded point against the single-shot
    // baseline measured first.
    let _ = measure_sharded_encode(&records, 1, None);
    let mut single_encode_ms = None;
    for shards in [1usize, 2, 4, 8] {
        let point = measure_sharded_encode(&records, shards, single_encode_ms);
        println!(
            "encode n = {:>8}, {} shard(s): ingest {:>8.1} ms, encode {:>8.1} ms ({:.2}x vs single-shot)",
            point.n, point.shards, point.ingest_ms, point.encode_ms, point.encode_speedup_vs_single,
        );
        if shards == 1 {
            single_encode_ms = Some(point.encode_ms);
        }
        points.push(point);
    }
}

/// Measures the `cold_start` scenario at one log size: JSON re-parse vs
/// snapshot open, both driven to the same end state (a log + a queryable
/// job view).
fn measure_cold_start(n: usize) -> ColdStartPoint {
    use perfxplain_core::snapshot;

    let log = synthetic_log(n);
    let features = log.job_catalog().len();
    let json = log.to_json().expect("log serializes");
    let shards = perfxplain_core::shard::hardware_threads();
    let dir = std::env::temp_dir().join(format!("pxbench_cold_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    snapshot::persist(&log, &dir, shards).expect("snapshot persists");
    let snapshot_bytes: u64 = std::fs::read_dir(&dir)
        .expect("snapshot dir lists")
        .map(|e| e.expect("entry").metadata().expect("metadata").len())
        .sum();
    drop(log);

    // Tier 1: cold JSON ingest — parse, rebuild catalogs, re-encode.
    let started = Instant::now();
    let parsed = ExecutionLog::from_json(&json).expect("JSON parses");
    let json_view = ColumnarLog::build_auto(&parsed, ExecutionKind::Job);
    let json_parse_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(json_view.num_rows(), n);
    drop((parsed, json_view));

    // Peak open memory is the VmHWM delta inside a freshly spawned probe
    // process: this process's high-water mark (and its allocator's
    // retained pages) were already raised by tier 1, so an in-process
    // delta would read 0 no matter what the open allocated.  Only the
    // memory numbers come from the probe — its wall clock also pays the
    // page faults of a virgin address space, which the tier-1 timing
    // above did not, so timing is measured in-process below, like-for-like.
    let (peak_open_bytes, open_resident_bytes) = match spawn_open_probe(&dir) {
        Some((_, peak, resident, rows)) => {
            assert_eq!(rows, n, "the open probe saw a different row count");
            (peak, resident)
        }
        None => (0, 0),
    };

    // Tier 2: snapshot open — read + verify + decode columns, then adopt
    // them into the views (no re-encode, no copy).
    let started = Instant::now();
    let snap = snapshot::open(&dir).expect("snapshot opens");
    let views = snap.into_views();
    let snapshot_open_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(views.job.num_rows(), n);
    assert_eq!(views.log.len(), n);
    drop(views);

    std::fs::remove_dir_all(&dir).expect("snapshot dir cleans up");
    ColdStartPoint {
        n,
        features,
        shards,
        json_bytes: json.len() as u64,
        snapshot_bytes,
        json_parse_ms,
        snapshot_open_ms,
        speedup: json_parse_ms / snapshot_open_ms.max(1e-9),
        peak_open_bytes,
        open_resident_bytes,
    }
}

/// Environment variable that switches the bench binary into the
/// cold-start open probe: its value is the snapshot directory to open.
const OPEN_PROBE_ENV: &str = "PXBENCH_OPEN_PROBE";

/// Re-runs this binary as an open probe against `dir` and parses its
/// report.  Returns `(open_ms, peak_bytes, resident_bytes, rows)`, or
/// `None` where spawning or /proc is unavailable.
fn spawn_open_probe(dir: &std::path::Path) -> Option<(f64, u64, u64, usize)> {
    let exe = std::env::current_exe().ok()?;
    let output = std::process::Command::new(exe)
        .env(OPEN_PROBE_ENV, dir)
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let mut fields = text.split_whitespace();
    let open_ms = fields.next()?.parse().ok()?;
    let peak = fields.next()?.parse().ok()?;
    let resident = fields.next()?.parse().ok()?;
    let rows = fields.next()?.parse().ok()?;
    if peak == 0 {
        return None;
    }
    Some((open_ms, peak, resident, rows))
}

/// The child half of [`spawn_open_probe`]: opens the snapshot, adopts the
/// views, and prints `open_ms peak_bytes resident_bytes rows` — measured
/// from a fresh address space, so the VmHWM delta is the open's own peak.
fn run_open_probe(dir: &std::path::Path) {
    use perfxplain_core::snapshot;

    reset_peak_rss();
    let baseline_rss = vm_rss_bytes();
    let started = Instant::now();
    let snap = snapshot::open(dir).expect("snapshot opens");
    let views = snap.into_views();
    let open_ms = started.elapsed().as_secs_f64() * 1e3;
    let peak = vm_hwm_bytes().saturating_sub(baseline_rss);
    let resident = vm_rss_bytes().saturating_sub(baseline_rss);
    println!("{open_ms} {peak} {resident} {}", views.log.len());
    drop(views);
}

/// Resets the kernel's peak-RSS watermark (VmHWM) to the current RSS so a
/// subsequent [`vm_hwm_bytes`] reads the peak of just the measured region.
/// Best-effort: a no-op where /proc/self/clear_refs is unavailable.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Current resident set size in bytes (0 where /proc is unavailable).
fn vm_rss_bytes() -> u64 {
    proc_status_bytes("VmRSS:")
}

/// Peak resident set size in bytes since the last [`reset_peak_rss`]
/// (0 where /proc is unavailable).
fn vm_hwm_bytes() -> u64 {
    proc_status_bytes("VmHWM:")
}

fn proc_status_bytes(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|line| line.starts_with(field))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Measures the `explain_latency` scenario at one log size: phase breakdown
/// of one warm blocked query, plus old-vs-new trainer wall time on the
/// identical training dataset — with the outputs cross-checked (Relief
/// weights bit-identical, tree shapes equal), so the speedup recorded here
/// is between two implementations proven to agree.
fn measure_explain_latency(n: usize) -> ExplainLatencyPoint {
    use mlcore::{relief_weights, DecisionTree, ReliefConfig, TreeConfig};
    use perfxplain_core::bridge::DatasetBridge;
    use perfxplain_core::pairs::PairCatalog;
    use perfxplain_core::training::prepare_encoded_training_in;
    use std::sync::Arc;

    let group_size = 10;
    // Three numeric group-level metrics: within-group pairs agree on them,
    // so the training dataset carries continuous base features with one
    // distinct value per sampled group — the candidate-heavy regime.
    let log = perfxplain_bench::blocked_log_with_group_metrics(n, group_size, 1, 3);
    let features = log.job_catalog().len();
    let config = ExplainConfig::default();
    let bound = service_queries(1, group_size).remove(0);
    let view = Arc::new(ColumnarLog::build_auto(&log, ExecutionKind::Job));

    // One full warm explain: what a cached service pays per query.
    let engine = PerfXplain::new(config.clone());
    let started = Instant::now();
    engine
        .explain_in(&log, view.clone(), &bound)
        .expect("warm explain succeeds");
    let explain_ms = started.elapsed().as_secs_f64() * 1e3;

    // Phase breakdown on the same view.
    let started = Instant::now();
    let encoded =
        prepare_encoded_training_in(&log, view, &bound, &config).expect("training prepares");
    let enumerate_ms = started.elapsed().as_secs_f64() * 1e3;

    let catalog = PairCatalog::from_raw(log.job_catalog())
        .restrict_to_groups(config.feature_level.allowed_groups());
    let excluded = perfxplain_core::query::excluded_raw_features(&bound, &config);
    let poi = encoded.poi_rows(&bound).expect("poi rows exist");
    let started = Instant::now();
    let bridge =
        DatasetBridge::encode_from_view(&encoded, poi, &catalog, &excluded, config.sim_threshold);
    let featurize_ms = started.elapsed().as_secs_f64() * 1e3;
    let dataset = bridge.dataset();

    let relief_config = ReliefConfig {
        iterations: config.relief_iterations,
        seed: config.seed,
    };
    let started = Instant::now();
    let weights = relief_weights(dataset, relief_config);
    let relief_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let tree = DecisionTree::fit(dataset, TreeConfig::default());
    let tree_ms = started.elapsed().as_secs_f64() * 1e3;

    let started = Instant::now();
    let naive_weights = mlcore::oracle::relief_weights(dataset, relief_config);
    let naive_relief_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let naive_tree = mlcore::oracle::fit(dataset, TreeConfig::default());
    let naive_tree_ms = started.elapsed().as_secs_f64() * 1e3;

    assert_eq!(
        weights, naive_weights,
        "columnar Relief diverged from the oracle"
    );
    assert_eq!(
        tree.root(),
        naive_tree.root(),
        "sweep-trained tree diverged from the oracle"
    );

    ExplainLatencyPoint {
        n,
        features,
        training_rows: dataset.len(),
        training_attrs: dataset.num_attributes(),
        enumerate_ms,
        featurize_ms,
        relief_ms,
        tree_ms,
        naive_relief_ms,
        naive_tree_ms,
        trainer_speedup: (naive_relief_ms + naive_tree_ms) / (relief_ms + tree_ms).max(1e-9),
        explain_ms,
    }
}

/// Measures the `serve_qps` scenario: spawns the network front-end over a
/// `synthetic_log(n)` in-process, sizes the admission budget to admit
/// roughly half the concurrent connections, and drives an open-loop
/// workload through real loopback sockets.
fn measure_serve_qps(
    n: usize,
    connections: usize,
    requests_per_connection: usize,
) -> ServeQpsPoint {
    use perfxplain_server::{
        default_request, run_load, spawn, QueryCost, SchedulerConfig, ServerConfig,
    };
    use std::sync::Arc;

    let service = Arc::new(XplainService::new(synthetic_log(n)));
    let request_units = QueryCost::from(
        &service
            .estimate_cost(
                &QueryRequest::text(default_request("job_2", "job_0").query.unwrap())
                    .with_pair("job_2", "job_0"),
            )
            .expect("the bench query is estimable"),
    )
    .units();
    // Budget for half the connection depth, a queue for a quarter of it:
    // the drive keeps every admission path busy (run, queue, shed).
    let workers = perfxplain_core::shard::hardware_threads();
    let budget_units = request_units * (connections as u64).div_ceil(2);
    let config = ServerConfig {
        workers,
        scheduler: SchedulerConfig {
            budget: QueryCost(budget_units),
            queue_capacity: (connections / 4).max(1),
            max_inflight_per_session: 2,
            max_pending_per_session: 8,
        },
        ..ServerConfig::default()
    };
    let handle = spawn(service, config).expect("bench server binds");
    let addr = handle.addr().to_string();

    let report = run_load(&addr, connections, requests_per_connection, |c, s| {
        let mut request = default_request("job_2", "job_0");
        request.id = Some((c * requests_per_connection + s) as u64);
        request
    })
    .expect("bench load drive completes");
    assert_eq!(report.transport_errors, 0, "bench drive lost connections");
    assert!(report.ok > 0, "bench drive answered nothing: {report:?}");
    handle.shutdown();

    ServeQpsPoint {
        n,
        connections,
        requests_per_connection,
        workers,
        budget_units,
        request_units,
        sent: report.sent,
        ok: report.ok,
        shed: report.shed,
        deadline: report.deadline,
        qps: report.qps,
        p50_ms: report.p50_ms,
        p99_ms: report.p99_ms,
    }
}

/// Measures the `live_ingest` scenario at one log size.  The append
/// batches are the continuation of the same [`perfxplain_bench::blocked_log`]
/// the service was started with — identical feature names, so every batch
/// stays on the delta path (a changed catalog would force a rebuild).
/// With `journal` set, the service is persisted to a scratch snapshot and
/// every append first frames the batch into the write-ahead journal under
/// that fsync policy — the durability tax on the measured ingest loop.
fn measure_live_ingest(
    n: usize,
    batch: usize,
    rounds: usize,
    journal: Option<FsyncPolicy>,
) -> LiveIngestPoint {
    let group_size = 10;
    // One generator call covers the base log and every append batch: slice
    // the first n records into the served log and feed the rest in batches.
    let all = perfxplain_bench::blocked_log(n + batch * rounds, group_size, 2)
        .records()
        .to_vec();
    let mut log = ExecutionLog::new();
    for record in &all[..n] {
        log.push(record.clone());
    }
    log.rebuild_catalogs();
    let features = log.job_catalog().len();
    let service = XplainService::with_config(log, ExplainConfig::default().with_sample_size(200));
    let journal_dir = journal.map(|policy| {
        let dir = std::env::temp_dir().join(format!(
            "pxbench_live_ingest_{}_{n}_{policy}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("journal scratch dir");
        service.persist(&dir).expect("journal anchor persist");
        service
            .enable_journal(&dir, policy)
            .expect("journal enables on the persisted dir");
        dir
    });
    let bound = service_queries(1, group_size).remove(0);

    // Warm: the first query pays the one full view build of this scenario.
    service
        .explain(&QueryRequest::bound(bound.clone()))
        .expect("live-ingest warm query succeeds");

    // Baseline: what a non-delta cache would pay to refresh after any
    // append — a from-scratch encode of the current log.
    let snapshot = service.snapshot();
    let started = Instant::now();
    let rebuilt = ColumnarLog::build_auto(&snapshot, ExecutionKind::Job);
    let full_rebuild_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(rebuilt.num_rows(), n);
    drop((snapshot, rebuilt));

    // The sustained loop: append, refresh (delta), serve.
    let mut ingest_secs = 0.0;
    let mut delta_ms_total = 0.0;
    let mut query_ms_total = 0.0;
    for round in 0..rounds {
        let from = n + round * batch;
        let records = all[from..from + batch].to_vec();
        let started = Instant::now();
        service.append(records).expect("append failed");
        let append_secs = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let view = service.view(ExecutionKind::Job);
        let delta_secs = started.elapsed().as_secs_f64();
        assert_eq!(view.num_rows(), from + batch);
        assert!(view.tail_rows() > 0, "append fell off the delta path");
        ingest_secs += append_secs + delta_secs;
        delta_ms_total += delta_secs * 1e3;

        let started = Instant::now();
        service
            .explain(&QueryRequest::bound(bound.clone()))
            .expect("live-ingest query succeeds");
        query_ms_total += started.elapsed().as_secs_f64() * 1e3;
    }

    let stats = service.view_stats();
    assert_eq!(
        stats.full_rebuilds, 1,
        "an append forced a full rebuild: {stats:?}"
    );
    let delta_refresh_ms = delta_ms_total / rounds as f64;
    if let Some(dir) = &journal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    LiveIngestPoint {
        n,
        features,
        batch,
        rounds,
        full_rebuild_ms,
        delta_refresh_ms,
        refresh_speedup: full_rebuild_ms / delta_refresh_ms.max(1e-9),
        appends_per_sec: (batch * rounds) as f64 / ingest_secs.max(1e-9),
        mean_query_ms: query_ms_total / rounds as f64,
        tail_rows: stats.tail_rows,
        delta_refreshes: stats.delta_refreshes,
        full_rebuilds: stats.full_rebuilds,
        fsync: journal.map(|policy| policy.to_string()),
    }
}

/// The blocked-enumeration scenario at n = 100k: candidates restricted to
/// within-pigscript groups by the despite clause.
fn measure_blocked_enumeration(n: usize, group_size: usize) -> BlockedEnumerationPoint {
    let log = perfxplain_bench::blocked_log(n, group_size, 4);
    let bound = service_queries(1, group_size).remove(0);
    let config = ExplainConfig::default();
    let view = ColumnarLog::build_auto(&log, ExecutionKind::Job);
    let groups = n.div_ceil(group_size) as u64;
    let enumerated = groups * (group_size as u64) * (group_size as u64 - 1);

    let started = Instant::now();
    let related = collect_related_pairs_in(&view, &bound, &log, &config);
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    BlockedEnumerationPoint {
        n,
        group_size,
        enumerated,
        unblocked_space: (n as u64) * (n as u64 - 1),
        related: related.len(),
        elapsed_ms,
    }
}

fn main() {
    if let Ok(dir) = std::env::var(OPEN_PROBE_ENV) {
        run_open_probe(std::path::Path::new(&dir));
        return;
    }

    let mut points = Vec::new();
    for &(n, measure_legacy) in &[(100usize, true), (1_000, true), (10_000, false)] {
        let point = measure(n, measure_legacy);
        println!(
            "n = {:>6}: streaming {:>12.0} pairs/s{}  candidate mem {} B (eager would be {} B)",
            point.n,
            point.streaming_pairs_per_sec,
            match point.speedup {
                Some(s) => format!(", map-based speedup {s:.1}x"),
                None => String::new(),
            },
            point.streaming_candidate_bytes,
            point.eager_candidate_bytes,
        );
        points.push(point);
    }

    let service_reuse = measure_service_reuse(20_000, 30, 8);
    println!(
        "service_reuse: n = {}, {} features, k = {}: cold {:.2} ms/query, first service \
         query {:.2} ms, warm {:.2} ms/query — {:.1}x from view reuse",
        service_reuse.n,
        service_reuse.features,
        service_reuse.k,
        service_reuse.cold_ms_per_query,
        service_reuse.service_first_query_ms,
        service_reuse.warm_ms_per_query,
        service_reuse.speedup,
    );

    let mut sharded_encode = Vec::new();
    for n in [100_000usize, 1_000_000] {
        measure_sharded_encode_sweep(n, &mut sharded_encode);
    }

    let mut cold_start = Vec::new();
    for n in [100_000usize, 1_000_000] {
        let point = measure_cold_start(n);
        println!(
            "cold_start n = {:>8}: JSON re-parse {:>8.1} ms ({} B) vs snapshot open \
             {:>8.1} ms ({} B) — {:.1}x; open peak {} B, resident {} B",
            point.n,
            point.json_parse_ms,
            point.json_bytes,
            point.snapshot_open_ms,
            point.snapshot_bytes,
            point.speedup,
            point.peak_open_bytes,
            point.open_resident_bytes,
        );
        cold_start.push(point);
    }

    let mut explain_latency = Vec::new();
    for n in [20_000usize, 100_000] {
        let point = measure_explain_latency(n);
        println!(
            "explain_latency n = {:>7} ({} rows × {} attrs): enumerate {:.1} ms, featurize \
             {:.1} ms, relief {:.1} ms (naive {:.1} ms), tree {:.1} ms (naive {:.1} ms) — \
             trainer {:.1}x, warm explain {:.1} ms",
            point.n,
            point.training_rows,
            point.training_attrs,
            point.enumerate_ms,
            point.featurize_ms,
            point.relief_ms,
            point.naive_relief_ms,
            point.tree_ms,
            point.naive_tree_ms,
            point.trainer_speedup,
            point.explain_ms,
        );
        explain_latency.push(point);
    }

    let serve_qps = measure_serve_qps(2_000, 8, 12);
    println!(
        "serve_qps: n = {}, {} connections x {} requests (budget {} units, request {} units): \
         {} ok / {} shed / {} expired of {} sent — {:.1} qps, p50 {:.1} ms, p99 {:.1} ms",
        serve_qps.n,
        serve_qps.connections,
        serve_qps.requests_per_connection,
        serve_qps.budget_units,
        serve_qps.request_units,
        serve_qps.ok,
        serve_qps.shed,
        serve_qps.deadline,
        serve_qps.sent,
        serve_qps.qps,
        serve_qps.p50_ms,
        serve_qps.p99_ms,
    );

    let mut live_ingest = Vec::new();
    let live_ingest_shapes: [(usize, Option<FsyncPolicy>); 5] = [
        (100_000, None),
        (1_000_000, None),
        // The durability tax at n = 100k: fsync per ack, amortized fsync,
        // and journal-only (fsync deferred to checkpoints — the policy
        // that should stay within 10% of the un-journaled point above).
        (100_000, Some(FsyncPolicy::Always)),
        (100_000, Some(FsyncPolicy::EveryN(8))),
        (100_000, Some(FsyncPolicy::OnCheckpoint)),
    ];
    for (n, journal) in live_ingest_shapes {
        let point = measure_live_ingest(n, 64, 8, journal);
        println!(
            "live_ingest n = {:>8} (fsync {:>12}): full rebuild {:>8.1} ms vs delta \
             refresh {:>6.2} ms ({:.0}x), {:.0} appends/s sustained, query {:.1} ms warm, \
             {} tail rows ({} delta refreshes, {} full rebuild)",
            point.n,
            point.fsync.as_deref().unwrap_or("off"),
            point.full_rebuild_ms,
            point.delta_refresh_ms,
            point.refresh_speedup,
            point.appends_per_sec,
            point.mean_query_ms,
            point.tail_rows,
            point.delta_refreshes,
            point.full_rebuilds,
        );
        live_ingest.push(point);
    }

    let blocked_enumeration = measure_blocked_enumeration(100_000, 10);
    println!(
        "blocked enumeration: n = {}, groups of {}: {} candidates (vs {} unblocked) in \
         {:.1} ms, {} related",
        blocked_enumeration.n,
        blocked_enumeration.group_size,
        blocked_enumeration.enumerated,
        blocked_enumeration.unblocked_space,
        blocked_enumeration.elapsed_ms,
        blocked_enumeration.related,
    );

    let report = PairsBenchReport {
        description: "Pair-classification throughput of the streaming columnar pipeline vs \
                      the legacy map-based path (uncapped points are like-for-like: both \
                      paths classify every enumerated pair; the capped point measures \
                      streaming enumeration under the production cap).  Candidate memory is \
                      the state held during enumeration — streaming holds only related \
                      pairs.  service_reuse answers k blocked queries through one \
                      XplainService (cached columnar view) vs k cold explain calls that \
                      re-encode the log each time.  sharded_encode ingests and encodes \
                      n-record logs as independent shards merged by dictionary remapping \
                      (bit-identical to the single-shot build); speedups scale with \
                      hardware_threads and degenerate to ~1x on one core.  cold_start \
                      compares time-to-first-queryable-view from JSON (parse + catalog \
                      rebuild + full re-encode) against opening a segmented binary \
                      snapshot (read + fingerprint-verify + decode stored columns, no \
                      re-encode).  blocked_enumeration classifies a despite-blocked query \
                      over 100k records.  explain_latency breaks one warm blocked query \
                      into phases (enumerate+sample / featurize / relief / tree) on a \
                      trainer-heavy log (numeric group-level metrics give the training \
                      dataset high-cardinality continuous base features) and times the \
                      retained naive trainer (O(d·n) candidate rescans, row-at-a-time \
                      Relief) against the sweep trainer (single-sort O(n log n) splits, \
                      columnar Relief) on the identical dataset, outputs cross-checked \
                      equal.  serve_qps drives an open-loop many-client workload through \
                      the network front-end over loopback sockets with the admission \
                      budget sized to half the connection depth, so queueing and typed \
                      load shedding are both on the measured path; latency percentiles \
                      cover successful responses only.  live_ingest drives sustained \
                      append batches through XplainService::append while serving \
                      queries: each batch is spliced into the cached view's append \
                      tail (O(tail) delta refresh), measured against the from-scratch \
                      re-encode a non-delta cache would pay after every append; \
                      journaled points (fsync = always / every:8 / oncheckpoint) add \
                      the write-ahead append journal to the measured loop, so the \
                      appends_per_sec deltas are the price of each durability tier.  \
                      Pair enumeration fans out over threads by default above \
                      parallel_enumeration_threshold records."
            .to_string(),
        hardware_threads: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        parallel_enumeration_threshold: PARALLEL_ENUMERATION_THRESHOLD,
        points,
        service_reuse,
        sharded_encode,
        cold_start,
        blocked_enumeration,
        explain_latency,
        serve_qps,
        live_ingest,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    // Write to the workspace root (identified by ROADMAP.md) whether run
    // from the root or via `cargo bench`, whose CWD is the bench crate.
    let path = if std::path::Path::new("ROADMAP.md").exists() {
        "BENCH_pairs.json"
    } else if std::path::Path::new("../../ROADMAP.md").exists() {
        "../../BENCH_pairs.json"
    } else {
        "BENCH_pairs.json"
    };
    std::fs::write(path, &json).expect("BENCH_pairs.json written");
    println!("wrote {path}");
}
