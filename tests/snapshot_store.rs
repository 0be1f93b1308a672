//! Integration tests of the persistent segmented snapshot store: round
//! trips, warm service rehydration, corruption handling (typed errors,
//! never panics), manifest-order authority, and the CLI's incremental
//! ingest loop.

use perfxplain::prelude::*;
use perfxplain::snapshot::{self, RecordShard, ShardInput};
use perfxplain::{
    CoreError, ExecutionKind, ExecutionLog, ExecutionRecord, QueryRequest, SnapshotManifest,
    XplainService,
};
use std::path::{Path, PathBuf};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pxsnap_it_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The block-size log of the service tests: big-block jobs plateau, so the
/// canonical despite-blocked query is answerable.
fn block_size_log(n: usize) -> ExecutionLog {
    let mut log = ExecutionLog::new();
    for i in 0..n {
        let big_blocks = i % 2 == 0;
        let input: f64 = if i % 4 < 2 { 32.0e9 } else { 1.0e9 };
        let duration = if big_blocks { 600.0 } else { input / 5.0e7 };
        log.push(
            ExecutionRecord::job(format!("job_{i}"))
                .with_feature("inputsize", input)
                .with_feature("blocksize", if big_blocks { 1024.0 } else { 64.0 })
                .with_feature("duration", duration),
        );
        if i % 3 == 0 {
            log.push(
                ExecutionRecord::task(format!("task_{i}"), format!("job_{i}"))
                    .with_feature("tasktype", if i % 2 == 0 { "MAP" } else { "REDUCE" })
                    .with_feature("duration", duration / 10.0),
            );
        }
    }
    log.rebuild_catalogs();
    log
}

const QUERY: &str = "DESPITE inputsize_compare = GT\n\
                     OBSERVED duration_compare = SIM\n\
                     EXPECTED duration_compare = GT";

#[test]
fn open_snapshot_rehydrates_a_warm_service() {
    let dir = test_dir("warm_service");
    let log = block_size_log(40);
    let request = QueryRequest::text(QUERY).with_pair("job_0", "job_2");

    let service = XplainService::new(log.clone());
    let original = service.explain(&request).unwrap();
    service.persist(&dir).unwrap();

    let reopened = XplainService::open_snapshot(&dir).unwrap();
    // Both kinds are populated, so both views come pre-warmed from the
    // stored binary columns.
    assert_eq!(reopened.cached_view_count(), 2);
    let rehydrated = reopened.explain(&request).unwrap();
    // The very *first* query after rehydration is served from the cache —
    // the log was never re-encoded, let alone re-parsed from JSON.
    assert!(rehydrated.view_reused);
    assert_eq!(rehydrated.explanation, original.explanation);
    assert_eq!(rehydrated.query, original.query);
    assert_eq!(reopened.snapshot(), log);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_segment_files_are_a_typed_error() {
    let dir = test_dir("truncated");
    snapshot::persist(&block_size_log(30), &dir, 2).unwrap();

    // Truncate the first segment and re-record its fingerprint, so the
    // failure exercises the decoder's truncation handling rather than the
    // fingerprint check.
    let mut manifest = SnapshotManifest::load(&dir).unwrap();
    let path = dir.join(&manifest.shards[0].file);
    let bytes = std::fs::read(&path).unwrap();
    let truncated = &bytes[..bytes.len() / 2];
    std::fs::write(&path, truncated).unwrap();
    manifest.shards[0].fingerprint = snapshot::fingerprint_bytes(truncated);
    std::fs::write(
        dir.join(snapshot::MANIFEST_FILE),
        serde_json::to_string_pretty(&manifest).unwrap(),
    )
    .unwrap();

    let file = manifest.shards[0].file.clone();
    match snapshot::open(&dir) {
        Err(CoreError::SnapshotCorrupt { path, message }) => {
            assert!(path.contains(&file), "path was {path}");
            assert!(!message.contains("fingerprint mismatch"), "{message}");
        }
        other => panic!("expected SnapshotCorrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fingerprint_mismatches_are_a_typed_error() {
    let dir = test_dir("fingerprint");
    snapshot::persist(&block_size_log(30), &dir, 2).unwrap();
    let manifest = SnapshotManifest::load(&dir).unwrap();
    let path = dir.join(&manifest.shards[1].file);
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0xff;
    std::fs::write(&path, bytes).unwrap();
    let file = manifest.shards[1].file.clone();

    // Every entry point that reads the shard agrees on the damage: the
    // strict open and an empty checkpoint fail naming the file...
    let damage = snapshot::open(&dir).unwrap_err();
    match &damage {
        CoreError::SnapshotCorrupt { path, message } => {
            assert!(path.contains(&file), "path was {path}");
            assert!(message.contains("fingerprint mismatch"), "{message}");
        }
        other => panic!("expected SnapshotCorrupt, got {other:?}"),
    }
    assert_eq!(
        snapshot::sync_append(&dir, Vec::new(), 1).unwrap_err(),
        damage
    );

    // ...the read-only health check flags exactly that shard, with the
    // same error...
    let health = snapshot::verify(&dir).unwrap();
    assert_eq!(health.len(), manifest.shards.len());
    for shard in &health {
        if shard.index == 1 {
            assert_eq!(shard.error.as_ref(), Some(&damage));
        } else {
            assert!(shard.is_healthy(), "{shard:?}");
        }
    }

    // ...and a salvage open quarantines exactly that shard.
    let partial = snapshot::open_salvage(&dir).unwrap();
    assert_eq!(partial.damaged_indices(), vec![1]);
    assert_eq!(partial.quarantined()[0].file, file);
    assert_eq!(partial.quarantined()[0].error, damage);
    assert_eq!(partial.healthy_shards(), manifest.shards.len() - 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn version_skew_is_a_typed_error() {
    let dir = test_dir("version_skew");
    snapshot::persist(&block_size_log(10), &dir, 1).unwrap();
    let mut manifest = SnapshotManifest::load(&dir).unwrap();
    manifest.version = 99;
    std::fs::write(
        dir.join(snapshot::MANIFEST_FILE),
        serde_json::to_string_pretty(&manifest).unwrap(),
    )
    .unwrap();
    match snapshot::open(&dir) {
        Err(CoreError::SnapshotVersionSkew { found, supported }) => {
            assert_eq!(found, 99);
            assert_eq!(supported, snapshot::SNAPSHOT_VERSION);
        }
        other => panic!("expected SnapshotVersionSkew, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A v1 snapshot (fixed-width segments, fat records block) is not readable
/// by the v2 decoder: `open` reports the skew as a typed error whose
/// message names the recovery path — a full re-ingest from the source.
#[test]
fn v1_manifests_report_version_skew_naming_reingest() {
    let dir = test_dir("v1_manifest");
    snapshot::persist(&block_size_log(10), &dir, 1).unwrap();
    let mut manifest = SnapshotManifest::load(&dir).unwrap();
    manifest.version = 1;
    std::fs::write(
        dir.join(snapshot::MANIFEST_FILE),
        serde_json::to_string_pretty(&manifest).unwrap(),
    )
    .unwrap();

    let err = snapshot::open(&dir).unwrap_err();
    let message = err.to_string();
    match err {
        CoreError::SnapshotVersionSkew { found, supported } => {
            assert_eq!(found, 1);
            assert_eq!(supported, snapshot::SNAPSHOT_VERSION);
        }
        other => panic!("expected SnapshotVersionSkew, got {other:?}"),
    }
    assert!(message.contains("re-ingest"), "{message}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Bit flips inside the compressed segment bitstreams (fingerprints
/// re-recorded, so the *decoder* sees the damage, not the checksum) and
/// truncations at every interesting boundary either decode to something or
/// fail with a typed `SnapshotCorrupt` — never a panic, and never an
/// attacker-sized allocation (the wall clock would explode long before the
/// sweep finished if counts were trusted before the bytes backing them).
/// On top of the typed failure, every damaged case must also *salvage*: a
/// lenient open quarantines the flipped shard (the file preserved on disk,
/// renamed aside, never deleted) and still serves the undamaged shard.
#[test]
fn corrupt_segment_bitstreams_fail_typed_never_panic() {
    let dir = test_dir("flip_sweep");
    snapshot::persist(&block_size_log(24), &dir, 2).unwrap();
    let mut manifest = SnapshotManifest::load(&dir).unwrap();
    let path = dir.join(&manifest.shards[0].file);
    let pristine = std::fs::read(&path).unwrap();
    let healthy_rows = manifest.shards[1].rows as usize;
    assert!(healthy_rows > 0, "the undamaged shard must hold rows");

    let mut check = |bytes: &[u8], what: &str| {
        std::fs::write(&path, bytes).unwrap();
        manifest.shards[0].fingerprint = snapshot::fingerprint_bytes(bytes);
        std::fs::write(
            dir.join(snapshot::MANIFEST_FILE),
            serde_json::to_string_pretty(&manifest).unwrap(),
        )
        .unwrap();
        match snapshot::open(&dir) {
            Ok(_) => {}
            Err(CoreError::SnapshotCorrupt { .. }) => {
                // The lenient open recovers every undamaged shard and
                // quarantines the flipped one without deleting its bytes.
                let partial = snapshot::open_salvage(&dir)
                    .unwrap_or_else(|e| panic!("{what}: salvage failed: {e}"));
                assert_eq!(partial.damaged_indices(), vec![0], "{what}");
                assert_eq!(partial.healthy_shards(), 1, "{what}");
                assert_eq!(partial.num_rows(), healthy_rows, "{what}");
                let damage = &partial.quarantined()[0];
                let quarantined_as = damage
                    .quarantined_as
                    .as_ref()
                    .unwrap_or_else(|| panic!("{what}: damage not quarantined: {damage:?}"));
                let preserved = std::fs::read(dir.join(quarantined_as))
                    .unwrap_or_else(|e| panic!("{what}: quarantine file unreadable: {e}"));
                assert_eq!(preserved, bytes, "{what}: quarantine altered the bytes");
                assert!(!path.exists(), "{what}: damaged segment left in place");
            }
            other => panic!("{what}: expected Ok or SnapshotCorrupt, got {other:?}"),
        }
    };

    // Flip bytes across the whole file — header, record block, presence
    // bitmaps, packed ids, numeric streams — with three different masks.
    let step = (pristine.len() / 97).max(1);
    for at in (0..pristine.len()).step_by(step) {
        for mask in [0xffu8, 0x01, 0x80] {
            let mut bytes = pristine.clone();
            bytes[at] ^= mask;
            check(&bytes, &format!("flip {mask:#x} at byte {at}"));
        }
    }

    // Truncate at structural boundaries (empty file, mid-magic, mid-header,
    // quarter / half / all-but-one).
    for keep in [
        0,
        1,
        7,
        8,
        11,
        12,
        pristine.len() / 4,
        pristine.len() / 2,
        pristine.len() - 1,
    ] {
        check(&pristine[..keep], &format!("truncate to {keep} bytes"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_segments_are_an_io_error_and_full_reingest_recovers() {
    let dir = test_dir("recovery");
    let log = block_size_log(30);
    snapshot::persist(&log, &dir, 3).unwrap();
    let manifest = SnapshotManifest::load(&dir).unwrap();
    std::fs::remove_file(dir.join(&manifest.shards[1].file)).unwrap();
    assert!(matches!(
        snapshot::open(&dir),
        Err(CoreError::SnapshotIo { .. })
    ));
    // An incremental sync against the broken snapshot fails the same,
    // typed, way when it needs the missing shard...
    let records = log.records().to_vec();
    let chunk_size = records.len().div_ceil(3);
    let mut dirty_first: Vec<ShardInput> = records
        .chunks(chunk_size)
        .map(|chunk| {
            ShardInput::Fresh(RecordShard {
                records: chunk.to_vec(),
                source_fingerprint: None,
            })
        })
        .collect();
    // Claim shard 1 unchanged: the manifest has no source fingerprint, so
    // the claim is rejected before the missing file is even touched.
    dirty_first[1] = ShardInput::Unchanged {
        source_fingerprint: 1,
    };
    assert!(snapshot::sync(&dir, dirty_first).is_err());

    // ...and the recovery path — a full re-ingest into the same directory —
    // restores a healthy snapshot.
    let report = snapshot::persist(&log, &dir, 3).unwrap();
    assert_eq!(report.shards_reused, 0);
    let snap = snapshot::open(&dir).unwrap();
    assert_eq!(snap.to_log(), log);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Shards whose catalogs disagree about a feature's kind (Null-only in one
/// shard, numeric in another), persisted in one order and listed in the
/// manifest in another: the manifest order is authoritative for record
/// order, and the merged catalog resolves kinds identically either way
/// (numeric wins), so the reopened log equals a serial ingest in manifest
/// order.
#[test]
fn manifest_order_wins_over_disk_layout() {
    let dir = test_dir("manifest_order");
    let chunks: Vec<Vec<ExecutionRecord>> = vec![
        vec![
            ExecutionRecord::job("job_a")
                .with_feature("mixed", perfxplain::pxql::Value::Null)
                .with_feature("duration", 100.0),
            ExecutionRecord::job("job_b")
                .with_feature("pigscript", "a.pig")
                .with_feature("duration", 200.0),
        ],
        vec![ExecutionRecord::job("job_c")
            .with_feature("mixed", 7.0)
            .with_feature("duration", 300.0)],
        vec![
            ExecutionRecord::job("job_d")
                .with_feature("only_last", "x")
                .with_feature("duration", 400.0),
            ExecutionRecord::task("task_d", "job_d").with_feature("tasktype", "MAP"),
        ],
    ];
    snapshot::persist_shards(
        &dir,
        chunks
            .iter()
            .map(|records| RecordShard {
                records: records.clone(),
                source_fingerprint: None,
            })
            .collect(),
    )
    .unwrap();

    // Rewrite the manifest with the shards listed in a different order
    // than the files were written (and than read_dir is likely to yield).
    let mut manifest = SnapshotManifest::load(&dir).unwrap();
    manifest.shards.rotate_left(2); // [2, 0, 1]
    std::fs::write(
        dir.join(snapshot::MANIFEST_FILE),
        serde_json::to_string_pretty(&manifest).unwrap(),
    )
    .unwrap();

    // The expectation: a serial ingest of the records in *manifest* order.
    let mut expected = ExecutionLog::new();
    for index in [2usize, 0, 1] {
        for record in &chunks[index] {
            expected.push(record.clone());
        }
    }
    expected.rebuild_catalogs();

    let snap = snapshot::open(&dir).unwrap();
    let reopened = snap.to_log();
    assert_eq!(reopened, expected);
    // Kind resolution is order-independent: `mixed` saw a numeric value in
    // one shard, so it is numeric however the shards are listed.
    assert_eq!(
        reopened.job_catalog().kind("mixed"),
        Some(perfxplain::FeatureKind::Numeric)
    );
    // And the assembled views match a from-scratch encode of the
    // manifest-ordered log, bit for bit.
    for kind in [ExecutionKind::Job, ExecutionKind::Task] {
        assert_eq!(
            snap.view(kind),
            perfxplain_core::columnar::ColumnarLog::build(&expected, kind)
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// CLI: incremental ingest loop
// ---------------------------------------------------------------------------

fn write_bundles(dir: &Path, seeds: &[u64]) {
    for &seed in seeds {
        let trace = Cluster::new(ClusterSpec::with_instances(2), seed).run_job(JobSpec::default());
        JobLogBundle::from_trace(&trace).write_to_dir(dir).unwrap();
    }
}

fn run_cli(args: &[&str]) -> (String, String) {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_perfxplain"))
        .args(args)
        .output()
        .expect("CLI runs");
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(
        output.status.success(),
        "CLI failed: {args:?}\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    (stdout, stderr)
}

/// `ingest --snapshot` pointed at a v1-era snapshot does not fail: it warns
/// on stderr that the existing snapshot is unusable and falls back to a
/// full re-ingest, leaving a healthy v2 snapshot behind.
#[test]
fn cli_ingest_falls_back_on_version_skew() {
    let dir = test_dir("cli_v1_fallback");
    let bundles = dir.join("bundles");
    std::fs::create_dir_all(&bundles).unwrap();
    write_bundles(&bundles, &[11, 12]);
    let snap = dir.join("snap");
    let bundles_arg = bundles.display().to_string();
    let snap_arg = snap.display().to_string();
    let base = [
        "ingest",
        "--bundles",
        bundles_arg.as_str(),
        "--snapshot",
        snap_arg.as_str(),
        "--shards",
        "1",
    ];
    run_cli(&base);

    // Rewrite the manifest as a v1 ancestor would have left it.
    let mut manifest = SnapshotManifest::load(&snap).unwrap();
    manifest.version = 1;
    std::fs::write(
        snap.join(snapshot::MANIFEST_FILE),
        serde_json::to_string_pretty(&manifest).unwrap(),
    )
    .unwrap();

    let (stdout, stderr) = run_cli(&base);
    assert!(
        stderr.contains("re-ingesting everything"),
        "fallback stderr:\n{stderr}"
    );
    assert!(
        stdout.contains("1 shard(s) re-encoded, 0 served from disk"),
        "fallback stdout:\n{stdout}"
    );
    // The rebuilt snapshot is current-version and opens cleanly.
    assert_eq!(
        SnapshotManifest::load(&snap).unwrap().version,
        snapshot::SNAPSHOT_VERSION
    );
    let reopened = snapshot::open(&snap).unwrap();
    let direct = collect_bundles(&JobLogBundle::read_all(&bundles).unwrap()).unwrap();
    assert_eq!(reopened.to_log(), direct);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cli_ingest_reencodes_only_dirty_shards() {
    let dir = test_dir("cli_ingest");
    let bundles = dir.join("bundles");
    std::fs::create_dir_all(&bundles).unwrap();
    write_bundles(&bundles, &[1, 2, 3, 4, 5, 6]);
    let snap = dir.join("snap");
    let bundles_arg = bundles.display().to_string();
    let snap_arg = snap.display().to_string();
    let base = [
        "ingest",
        "--bundles",
        bundles_arg.as_str(),
        "--snapshot",
        snap_arg.as_str(),
        "--shards",
        "3",
    ];

    // First run: no snapshot yet, everything parses and encodes.
    let (stdout, _) = run_cli(&base);
    assert!(
        stdout.contains("3 shard(s) re-encoded, 0 served from disk"),
        "first run output:\n{stdout}"
    );

    // Second run, nothing changed: nothing parses, nothing encodes.
    let (stdout, _) = run_cli(&base);
    assert!(
        stdout.contains("0 shard(s) parsed, 3 clean skipped"),
        "second run output:\n{stdout}"
    );
    assert!(
        stdout.contains("0 shard(s) re-encoded, 3 served from disk"),
        "second run output:\n{stdout}"
    );

    // Touch one bundle: exactly its shard re-parses and re-encodes.
    // Bundles are sorted by job id and chunked 2-per-shard, so one bundle
    // dirties one shard.
    let manifest_before = SnapshotManifest::load(&snap).unwrap();
    let victim = std::fs::read_dir(&bundles)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.is_dir())
        .unwrap();
    let ganglia = victim.join("ganglia.csv");
    let mut text = std::fs::read_to_string(&ganglia).unwrap();
    text.push('\n');
    std::fs::write(&ganglia, text).unwrap();
    let (stdout, _) = run_cli(&base);
    assert!(
        stdout.contains("1 shard(s) parsed, 2 clean skipped"),
        "third run output:\n{stdout}"
    );
    assert!(
        stdout.contains("1 shard(s) re-encoded, 2 served from disk"),
        "third run output:\n{stdout}"
    );
    // Fingerprint bookkeeping across the runs: exactly one *source*
    // fingerprint moved (the touched bundle's shard).  Its content
    // fingerprint may legitimately stay put — the appended blank line
    // parses to identical records — but no *other* shard's content moved.
    let manifest_after = SnapshotManifest::load(&snap).unwrap();
    let source_changed: Vec<usize> = manifest_before
        .shards
        .iter()
        .zip(&manifest_after.shards)
        .enumerate()
        .filter(|(_, (a, b))| a.source_fingerprint != b.source_fingerprint)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(source_changed.len(), 1, "{source_changed:?}");
    for (i, (a, b)) in manifest_before
        .shards
        .iter()
        .zip(&manifest_after.shards)
        .enumerate()
    {
        if i != source_changed[0] {
            assert_eq!(
                a.fingerprint, b.fingerprint,
                "clean shard {i} was rewritten"
            );
        }
    }

    // Corrupt a segment: the CLI salvages — it quarantines the damaged
    // shard and re-encodes only that one, instead of re-ingesting the
    // world (the full re-ingest remains the last resort for stores salvage
    // cannot read at all, e.g. version skew — see
    // `cli_ingest_falls_back_on_version_skew`).
    let path = snap.join(&manifest_after.shards[0].file);
    let mut bytes = std::fs::read(&path).unwrap();
    let len = bytes.len();
    bytes.truncate(len / 3);
    std::fs::write(&path, bytes).unwrap();
    let (stdout, stderr) = run_cli(&base);
    assert!(
        stderr.contains("quarantined 1 damaged shard(s), re-encoding only those"),
        "recovery stderr:\n{stderr}"
    );
    assert!(
        stdout.contains("1 shard(s) parsed, 2 clean skipped"),
        "recovery stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("1 shard(s) re-encoded, 2 served from disk"),
        "recovery stdout:\n{stdout}"
    );
    // The quarantined segment survives the repair on disk.
    let quarantine = snap.join(format!("quarantine-{}", manifest_after.shards[0].file));
    assert!(quarantine.exists(), "quarantine file was deleted");
    // The recovered snapshot opens cleanly and answers like the JSON path.
    let snap_open = snapshot::open(&snap).unwrap();
    let direct = collect_bundles(&JobLogBundle::read_all(&bundles).unwrap()).unwrap();
    assert_eq!(snap_open.to_log(), direct);

    // `snapshot verify` agrees: every shard healthy, exit code zero.
    let snap_arg2 = snap.display().to_string();
    let (stdout, _) = run_cli(&["snapshot", "verify", "--snapshot", snap_arg2.as_str()]);
    assert!(
        stdout.contains("all 3 shard(s) healthy"),
        "verify stdout:\n{stdout}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `snapshot verify` reports damage per shard and exits non-zero, without
/// touching the store (no quarantining — verification is read-only).
#[test]
fn cli_snapshot_verify_reports_damage_and_exits_nonzero() {
    let dir = test_dir("cli_verify");
    snapshot::persist(&block_size_log(30), &dir, 3).unwrap();
    let dir_arg = dir.display().to_string();
    let verify = ["snapshot", "verify", "--snapshot", dir_arg.as_str()];

    let (stdout, _) = run_cli(&verify);
    assert!(stdout.contains("all 3 shard(s) healthy"), "{stdout}");

    // Flip a byte in one segment: verify names the shard, exits non-zero,
    // and leaves the damaged file exactly where it was.
    let manifest = SnapshotManifest::load(&dir).unwrap();
    let victim = dir.join(&manifest.shards[1].file);
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&victim, &bytes).unwrap();

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_perfxplain"))
        .args(verify)
        .output()
        .expect("CLI runs");
    assert!(!output.status.success(), "damage must exit non-zero");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stdout.contains("DAMAGED"), "verify stdout:\n{stdout}");
    assert!(
        stderr.contains("1 of 3 shard(s) damaged"),
        "verify stderr:\n{stderr}"
    );
    assert!(victim.exists(), "verify must not quarantine");
    assert_eq!(std::fs::read(&victim).unwrap(), bytes);
    std::fs::remove_dir_all(&dir).unwrap();
}
