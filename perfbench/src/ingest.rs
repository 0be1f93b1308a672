//! `ingest_journaled`: a log shipper appending while analysts query.
//!
//! A 500k-job blocked log (`blocked_log(500_000, 10, 1)`: 50k distinct
//! `pigscript` values) is persisted as a snapshot during input preparation,
//! then served through `XplainService::open_snapshot` with the append
//! journal on (`FsyncPolicy::EveryN(8)`).  One connection sends 64-record
//! append batches open-loop at a fixed rate, and after every 32nd
//! acknowledged batch the appending thread checkpoints the service (a count,
//! not a timer, so the store's bytes repeat exactly).  The other connection
//! sends queries open-loop at a fixed rate, with seeded pairs of interest
//! from the base and from the freshly appended tail.  Delta refreshes copy
//! the dictionaries and the journal and checkpoints run on the same event
//! loop as the reads, so a gain for one side that costs the other shows.

use crate::driver::{fixed_schedule, run_open_loop, status, Outcome, Planned};
use crate::layers;
use crate::report::{peak_rss_mb, progress, reset_peak_rss, RunResult};
use crate::served::{self, blocked_pair, blocked_wire, GROUP};
use crate::stats::{max, median, percentile};
use crate::trace::Tracer;
use perfxplain_core::snapshot::FsyncPolicy;
use perfxplain_core::{ExecutionKind, ExecutionLog, ExecutionRecord, XplainService};
use perfxplain_server::{spawn, Client, ServerHandle, WireRequest};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs in the persisted base log.
const BASE_ROWS: usize = 500_000;
/// Records per append batch.
const BATCH: usize = 64;
/// Append batches per second, evenly spaced.  An append runs on the
/// server's event loop and waits there for the queries holding the log's
/// read lock, and each query's pair enumeration uses both cores; the two
/// rates keep the machine about two-thirds busy, since a busier mix makes
/// the lock convoys, and with them the tail latencies, vary widely from run
/// to run.  The rates differ so that appends meet queries at every phase
/// offset, about nine times over a 30 s run.
pub const APPEND_RATE: f64 = 3.7;
/// Queries per second, evenly spaced.
pub const QUERY_RATE: f64 = 3.4;
/// The appending thread checkpoints after every this many acked batches.
const CHECKPOINT_EVERY: usize = 16;
/// The journal's flush policy; the same on both sides of any comparison.
const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(8);
/// Share of queries whose pair of interest is in the appended tail.
const TAIL_SHARE: f64 = 0.5;
/// A tail pair is only asked about once its records were due this long
/// before the query.
const TAIL_DELAY_S: f64 = 2.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Answers checked against the in-process service.
const CHECK_SAMPLE: usize = 8;
/// Requests replayed stage by stage in a traced run.
const STAGE_SAMPLE: usize = 20;
/// In-process append batches replayed in a traced run to time the journal
/// and the delta refresh.
const REPLAY_BATCHES: usize = 220;

fn append_wire(records: &[ExecutionRecord]) -> WireRequest {
    WireRequest {
        target: Some("append".to_string()),
        records: Some(serde_json::to_string(records).expect("records serialize")),
        ..WireRequest::default()
    }
}

/// Bytes of every file in `dir`; journal files separately.
fn store_bytes(dir: &Path) -> Result<(u64, u64), String> {
    let mut store = 0;
    let mut journal = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let bytes = entry.metadata().map_err(|e| format!("stat: {e}"))?.len();
        if entry.file_name().to_string_lossy().starts_with("journal") {
            journal += bytes;
        } else {
            store += bytes;
        }
    }
    Ok((store, journal))
}

/// Removes the work directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One set-up: open the snapshot, enable the journal, spawn the server,
/// first answer.
fn setup(
    dir: &Path,
    tracer: Option<&Tracer>,
) -> Result<(f64, f64, Arc<XplainService>, ServerHandle), String> {
    let start = Instant::now();
    let service = XplainService::open_snapshot(dir).map_err(|e| format!("open_snapshot: {e}"))?;
    let opened = Instant::now();
    service
        .enable_journal(dir, FSYNC)
        .map_err(|e| format!("enable_journal: {e}"))?;
    let journaled = Instant::now();
    let service = Arc::new(service);
    let handle = spawn(Arc::clone(&service), served::server_config())
        .map_err(|e| format!("server does not start: {e}"))?;
    let spawned = Instant::now();
    let mut client =
        Client::connect(&handle.addr().to_string()).map_err(|e| format!("connect: {e}"))?;
    let first = client
        .call(&blocked_wire(2, 0, false))
        .map_err(|e| format!("first query: {e}"))?;
    if !first.is_ok() {
        return Err(format!("first query failed: {:?}", first.message));
    }
    let end = Instant::now();
    if let Some(tracer) = tracer {
        let root = tracer.record("setup", 0, None, start, end);
        tracer.record("snapshot.open", 0, Some(root), start, opened);
        tracer.record("journal.enable", 0, Some(root), opened, journaled);
        tracer.record("server.spawn", 0, Some(root), journaled, spawned);
        tracer.record("client.first_query", 0, Some(root), spawned, end);
    }
    Ok((
        (end - start).as_secs_f64(),
        (opened - start).as_secs_f64() * 1e3,
        service,
        handle,
    ))
}

/// Runs the workload for `seconds`.
pub fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Result<RunResult, String> {
    let run_start = Instant::now();
    let mut result = RunResult::default();
    result.setting("base_rows", BASE_ROWS);
    result.setting("group_size", GROUP);
    result.setting("append_batch_records", BATCH);
    result.setting("append_rate_batches_per_s", APPEND_RATE);
    result.setting("query_rate_qps", QUERY_RATE);
    result.setting("checkpoint_every_batches", CHECKPOINT_EVERY);
    result.setting("fsync_policy", FSYNC);
    result.setting("tail_query_share", TAIL_SHARE);
    result.setting("server_workers", served::WORKERS);

    // Input preparation: base log persisted as a snapshot, the append
    // batches (plus the traced run's in-process batches) and the plans.
    let append_due = fixed_schedule(APPEND_RATE, seconds);
    let extra = if tracer.is_some() { REPLAY_BATCHES } else { 0 };
    let all =
        perfxplain_bench::blocked_log(BASE_ROWS + (append_due.len() + extra) * BATCH, GROUP, 1);
    let mut base = ExecutionLog::new();
    for record in &all.records()[..BASE_ROWS] {
        base.push(record.clone());
    }
    base.rebuild_catalogs();
    let tail: Vec<ExecutionRecord> = all.records()[BASE_ROWS..].to_vec();
    drop(all);
    let work = WorkDir(Path::new(".bench_work").join(format!("ingest-{}", std::process::id())));
    let dir = work.0.clone();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    perfxplain_core::snapshot::persist(&base, &dir, 2).map_err(|e| format!("persist: {e}"))?;
    drop(base);

    let append_plan: Vec<Planned> = append_due
        .iter()
        .enumerate()
        .map(|(b, &due_s)| Planned {
            due_s,
            request: append_wire(&tail[b * BATCH..(b + 1) * BATCH]),
        })
        .collect();
    let base_groups = BASE_ROWS / GROUP;
    // Tail groups whose every record is in a batch due by time `t`.
    let ready_groups = |t: f64| -> usize {
        let due = append_due.iter().take_while(|&&d| d <= t).count();
        base_groups + due * BATCH / GROUP
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut query_plan: Vec<Planned> = fixed_schedule(QUERY_RATE, seconds)
        .into_iter()
        .map(|due_s| {
            let ready = ready_groups(due_s - TAIL_DELAY_S);
            let groups = if rng.random::<f64>() < TAIL_SHARE && ready > base_groups {
                base_groups..ready
            } else {
                0..base_groups
            };
            let (left, right) = blocked_pair(&mut rng, groups);
            Planned {
                due_s,
                request: blocked_wire(left, right, false),
            }
        })
        .collect();
    if tracer.is_some() {
        query_plan = served::with_status_probes(query_plan, 0.5, seconds);
    }
    progress(run_start, "inputs prepared");
    reset_peak_rss();
    let mut setups = Vec::new();
    let mut open_ms = Vec::new();
    let mut kept: Option<(Arc<XplainService>, ServerHandle)> = None;
    for _ in 0..SETUPS {
        if let Some((service, handle)) = kept.take() {
            served::retire(service, handle);
        }
        let (secs, opened, service, handle) = setup(&dir, tracer)?;
        setups.push(secs);
        open_ms.push(opened);
        kept = Some((service, handle));
    }
    let (service, handle) = kept.expect("at least one set-up ran");
    progress(run_start, "set-ups done");
    let addr = handle.addr().to_string();

    // Appends and queries stream for the whole run, each on its own
    // connection.
    let start = Instant::now() + Duration::from_millis(20);
    let give_up = Duration::from_secs(30);
    let (appends, queries) = std::thread::scope(|scope| {
        let appender = scope.spawn(|| {
            let mut checkpoints: Vec<(f64, u64)> = Vec::new();
            let mut failure = None;
            let outcomes = run_open_loop(&addr, &append_plan, start, 1, give_up, |i, response| {
                if response.is_ok() && (i + 1) % CHECKPOINT_EVERY == 0 && failure.is_none() {
                    let before = store_bytes(&dir).map(|(s, _)| s).unwrap_or(0);
                    let begun = Instant::now();
                    if let Err(e) = service.checkpoint(&dir) {
                        failure = Some(format!("checkpoint after batch {i}: {e}"));
                    }
                    let done = Instant::now();
                    if let Some(tracer) = tracer {
                        tracer.record("snapshot.checkpoint", i as u64, None, begun, done);
                    }
                    let after = store_bytes(&dir).map(|(s, _)| s).unwrap_or(0);
                    checkpoints.push((
                        (done - begun).as_secs_f64() * 1e3,
                        after.saturating_sub(before),
                    ));
                }
            });
            (outcomes, checkpoints, failure)
        });
        let queries = run_open_loop(&addr, &query_plan, start, usize::MAX, give_up, |_, _| {});
        (appender.join().expect("append thread panicked"), queries)
    });
    let (append_outcomes, checkpoints, checkpoint_failure) = appends;
    let append_outcomes = append_outcomes.map_err(|e| format!("append stream: {e}"))?;
    let query_outcomes_all = queries.map_err(|e| format!("query stream: {e}"))?;
    if let Some(failure) = checkpoint_failure {
        result.problem(failure);
    }
    let mut probe = Client::connect(&addr).map_err(|e| format!("status connect: {e}"))?;
    let end_status = status(&mut probe).map_err(|e| format!("status: {e}"))?;
    drop(probe);
    handle.drain();
    progress(run_start, "load phases done");
    let journal = service.journal_stats().unwrap_or_default();
    let peak = peak_rss_mb();

    // End-to-end metrics.
    let query_idx: Vec<usize> = (0..query_plan.len())
        .filter(|&i| query_plan[i].request.target.is_none())
        .collect();
    let query_outcomes: Vec<&Outcome> = query_idx.iter().map(|&i| &query_outcomes_all[i]).collect();
    let (p50, p90, _) = served::query_percentiles(&query_outcomes)?;
    let append_refs: Vec<&Outcome> = append_outcomes.iter().collect();
    let append_latency: Vec<f64> = append_outcomes.iter().map(|o| o.latency_ms).collect();
    let acked: Vec<usize> = (0..append_outcomes.len())
        .filter(|&b| append_outcomes[b].ok())
        .collect();
    let durable_acks = acked
        .iter()
        .filter(|&&b| {
            append_outcomes[b]
                .response
                .as_ref()
                .and_then(|r| r.durable)
                .unwrap_or(false)
        })
        .count();
    let acked_rows = acked.len() * BATCH;
    let failed_queries = query_outcomes.iter().filter(|o| !o.ok()).count() as u64;
    result.attempted = (query_outcomes.len() + append_outcomes.len()) as u64;
    result.failed = failed_queries + (append_outcomes.len() - acked.len()) as u64;
    let (store, journal_bytes) = store_bytes(&dir)?;
    let records = BASE_ROWS + acked_rows;
    result.e2e("setup_s", "s", median(&setups));
    result.e2e("peak_rss_mb", "MB", peak);
    result.e2e("query_p50_ms", "ms", p50);
    result.e2e("query_p90_ms", "ms", p90);
    result.e2e(
        "append_p50_ms",
        "ms",
        percentile(&append_latency, 0.5).map_err(|e| format!("append p50: {e}"))?,
    );
    result.e2e(
        "append_p90_ms",
        "ms",
        percentile(&append_latency, 0.9).map_err(|e| format!("append p90: {e}"))?,
    );
    result.e2e(
        "store_bytes_per_record",
        "bytes",
        (store + journal_bytes) as f64 / records as f64,
    );
    result.e2e(
        "failed_frac",
        "ratio",
        result.failed as f64 / result.attempted.max(1) as f64,
    );
    result.notes.push(format!(
        "{} queries and {} append batches ({} acked, {durable_acks} acked durable), \
         {} checkpoints",
        query_outcomes.len(),
        append_outcomes.len(),
        acked.len(),
        checkpoints.len()
    ));
    let query_lag = served::driver_lag(&query_outcomes, "queries", &mut result);
    let append_lag = served::driver_lag(&append_refs, "appends", &mut result);

    // Correctness: sampled wire answers equal in-process answers against
    // the final store (every queried record is in it).
    let sample = served::sample_answered(
        &query_outcomes_all,
        &query_plan,
        seed ^ 0xc4ec,
        CHECK_SAMPLE,
    );
    served::check_answers(
        &service,
        &query_plan,
        &query_outcomes_all,
        &sample,
        &mut result,
    );
    drop(service);

    // Correctness: after the drain, a reopened store holds every acked
    // record, and its view has exactly the acked rows.
    let reopened =
        XplainService::open_snapshot(&dir).map_err(|e| format!("reopen after drain: {e}"))?;
    let missing = reopened.with_log(|log| {
        let present: std::collections::HashSet<&str> =
            log.records().iter().map(|r| r.id.as_str()).collect();
        acked
            .iter()
            .flat_map(|&b| &tail[b * BATCH..(b + 1) * BATCH])
            .filter(|record| !present.contains(record.id.as_str()))
            .count()
    });
    if missing > 0 {
        result.problem(format!(
            "{missing} acknowledged records missing after reopen"
        ));
    }
    let rows = reopened.view(ExecutionKind::Job).num_rows();
    if rows != records {
        result.problem(format!(
            "reopened view has {rows} rows, expected {records} (base + acked)"
        ));
    }

    progress(run_start, "checks done");
    if let Some(tracer) = tracer {
        let layers = &mut result.layers;
        let ms: Vec<f64> = checkpoints.iter().map(|c| c.0).collect();
        let bytes: Vec<f64> = checkpoints.iter().map(|c| c.1 as f64).collect();
        layers::set(layers, "driver.lag_p95_ms", query_lag.max(append_lag));
        layers::set(layers, "snapshot.open_ms", median(&open_ms));
        layers::set(layers, "snapshot.checkpoint_p50_ms", median(&ms));
        layers::set(layers, "snapshot.checkpoint_max_ms", max(&ms));
        layers::set(layers, "snapshot.checkpoint_bytes", median(&bytes));
        layers::set(
            layers,
            "snapshot.store_bytes_per_record",
            (store + journal_bytes) as f64 / records as f64,
        );
        layers::set(layers, "journal.fsyncs", journal.fsyncs as f64);
        let journal_records = (acked.len() % CHECKPOINT_EVERY) * BATCH;
        layers::set(
            layers,
            "journal.bytes_per_record",
            if journal_records > 0 {
                journal_bytes.saturating_sub(12) as f64 / journal_records as f64
            } else {
                0.0
            },
        );
        let frames: Vec<f64> = append_outcomes
            .iter()
            .map(|o| o.frame_bytes as f64)
            .collect();
        layers::set(layers, "protocol.append_frame_bytes", median(&frames));
        served::set_status_metrics(
            &end_status,
            served::charged_units(&query_outcomes_all),
            layers,
        );
        layers::set(
            layers,
            "scheduler.queue_depth_max",
            served::status_max(&query_outcomes_all, |r| r.queue_depth),
        );
        layers::set(
            layers,
            "columnar.tail_rows_max",
            served::status_max(&query_outcomes_all, |r| r.tail_rows),
        );
        served::trace_served(
            tracer,
            &reopened,
            &query_plan,
            &query_outcomes_all,
            p50,
            seed ^ 0x7ace,
            STAGE_SAMPLE,
            layers,
        )?;

        progress(run_start, "served requests replayed");
        // In-process: journal append and the delta refresh right after it.
        reopened
            .enable_journal(&dir, FSYNC)
            .map_err(|e| format!("enable_journal for replay: {e}"))?;
        let (mut append_us, mut refresh_ms) = (Vec::new(), Vec::new());
        let first = append_due.len();
        for b in first..first + REPLAY_BATCHES {
            let batch = tail[b * BATCH..(b + 1) * BATCH].to_vec();
            let begun = Instant::now();
            reopened
                .append(batch)
                .map_err(|e| format!("in-process append: {e}"))?;
            let appended = Instant::now();
            let view = reopened.view(ExecutionKind::Job);
            let refreshed = Instant::now();
            tracer.record("journal.append", b as u64, None, begun, appended);
            tracer.record("columnar.refresh", b as u64, None, appended, refreshed);
            append_us.push((appended - begun).as_secs_f64() * 1e6);
            refresh_ms.push((refreshed - appended).as_secs_f64() * 1e3);
            std::hint::black_box(view);
        }
        layers::set(layers, "journal.append_p50_us", median(&append_us));
        layers::set(
            layers,
            "columnar.refresh_p50_ms",
            percentile(&refresh_ms, 0.5).map_err(|e| format!("refresh p50: {e}"))?,
        );
        layers::set(
            layers,
            "columnar.refresh_p95_ms",
            percentile(&refresh_ms, 0.95).map_err(|e| format!("refresh p95: {e}"))?,
        );
    }
    drop(reopened);
    drop(work);
    Ok(result)
}
