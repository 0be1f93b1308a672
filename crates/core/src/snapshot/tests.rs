use super::journal::{JOURNAL_HEADER_BYTES, JOURNAL_TMP_FILE};
use super::segment::values_identical;
use super::*;
use crate::columnar::ColumnarLog;
use crate::record::{ExecutionKind, ExecutionLog, ExecutionRecord};
use pxql::Value;

fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pxsnap_unit_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample_log() -> ExecutionLog {
    let mut log = ExecutionLog::new();
    for i in 0..10 {
        log.push(
            ExecutionRecord::job(format!("job_{i}"))
                .with_feature("inputsize", (i as f64) * 1.0e9)
                .with_feature("pigscript", format!("script_{}.pig", i % 3))
                .with_feature("duration", 100.0 + i as f64),
        );
        log.push(
            ExecutionRecord::task(format!("task_{i}"), format!("job_{i}"))
                .with_feature("tasktype", if i % 2 == 0 { "MAP" } else { "REDUCE" })
                .with_feature("duration", 10.0 + i as f64),
        );
    }
    log.rebuild_catalogs();
    log
}

#[test]
fn fingerprints_are_deterministic_and_part_sensitive() {
    assert_eq!(fingerprint_bytes(b"abc"), fingerprint_bytes(b"abc"));
    assert_ne!(fingerprint_bytes(b"abc"), fingerprint_bytes(b"abd"));
    assert_ne!(
        fingerprint_texts(["ab", "c"]),
        fingerprint_texts(["a", "bc"])
    );
    assert_eq!(
        fingerprint_texts(["history", "conf"]),
        fingerprint_texts(["history", "conf"])
    );
}

#[test]
fn persist_open_round_trips_log_and_views() {
    let log = sample_log();
    let dir = test_dir("roundtrip");
    for shards in [1usize, 3, 7, 64] {
        let report = persist(&log, &dir, shards).unwrap();
        assert_eq!(report.rows, log.len());
        assert_eq!(report.shards_reused, 0);
        assert!(report.manifest.shards.len() <= shards.max(1));

        let snapshot = open(&dir).unwrap();
        assert_eq!(snapshot.num_rows(), log.len());
        assert_eq!(snapshot.to_log(), log);
        for kind in [ExecutionKind::Job, ExecutionKind::Task] {
            assert_eq!(snapshot.view(kind), ColumnarLog::build(&log, kind));
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_logs_snapshot_cleanly() {
    let dir = test_dir("empty");
    let log = ExecutionLog::new();
    persist(&log, &dir, 4).unwrap();
    let snapshot = open(&dir).unwrap();
    assert_eq!(snapshot.num_rows(), 0);
    assert_eq!(snapshot.to_log(), log);
    assert_eq!(snapshot.view(ExecutionKind::Job).num_rows(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sync_reuses_clean_shards_and_reencodes_dirty_ones() {
    let log = sample_log();
    let records = log.records();
    let shards: Vec<RecordShard> = records
        .chunks(4)
        .enumerate()
        .map(|(i, chunk)| RecordShard {
            records: chunk.to_vec(),
            source_fingerprint: Some(1000 + i as u64),
        })
        .collect();
    let count = shards.len();
    let dir = test_dir("sync");
    persist_shards(&dir, shards.clone()).unwrap();
    let before = SnapshotManifest::load(&dir).unwrap();

    // Dirty exactly shard 1: a numeric feature value changes (catalog
    // stays stable).
    let mut dirty = shards[1].clone();
    dirty.records[0].set_feature("duration", 9999.0);
    dirty.source_fingerprint = Some(777);
    let inputs: Vec<ShardInput> = shards
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            if i == 1 {
                ShardInput::Fresh(dirty.clone())
            } else {
                ShardInput::Unchanged {
                    source_fingerprint: shard.source_fingerprint.unwrap(),
                }
            }
        })
        .collect();
    let report = sync(&dir, inputs).unwrap();
    assert_eq!(report.shards_encoded, 1);
    assert_eq!(report.shards_reused, count - 1);
    assert!(!report.catalog_changed);
    // Fingerprint bookkeeping: every clean shard's entry is carried
    // forward bit-for-bit; the dirty shard's fingerprint moved.
    for (i, (old_entry, new_entry)) in before
        .shards
        .iter()
        .zip(&report.manifest.shards)
        .enumerate()
    {
        if i == 1 {
            assert_ne!(old_entry.fingerprint, new_entry.fingerprint);
            assert_eq!(new_entry.source_fingerprint, Some(777));
        } else {
            assert_eq!(old_entry.fingerprint, new_entry.fingerprint);
        }
    }

    // The synced snapshot equals a from-scratch ingest of the same
    // records.
    let mut expected = ExecutionLog::new();
    for (i, shard) in shards.iter().enumerate() {
        let source = if i == 1 { &dirty } else { shard };
        for record in &source.records {
            expected.push(record.clone());
        }
    }
    expected.rebuild_catalogs();
    let snapshot = open(&dir).unwrap();
    assert_eq!(snapshot.to_log(), expected);
    assert_eq!(
        snapshot.view(ExecutionKind::Job),
        ColumnarLog::build(&expected, ExecutionKind::Job)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sync_append_keeps_base_shards_and_adds_a_tail() {
    let dir = test_dir("sync_append");
    let log = sample_log();
    // `persist` records no source fingerprints — exactly the situation
    // `ShardInput::Keep` exists for.
    persist(&log, &dir, 3).unwrap();
    let base_shards = SnapshotManifest::load(&dir).unwrap().shards.len();

    // A tail whose features the stored catalog already knows: every
    // base shard is kept verbatim, only the tail is encoded.
    let tail = vec![
        ExecutionRecord::job("job_tail")
            .with_feature("inputsize", 5.0e9)
            .with_feature("pigscript", "script_0.pig")
            .with_feature("duration", 111.0),
        ExecutionRecord::task("task_tail", "job_tail")
            .with_feature("tasktype", "MAP")
            .with_feature("duration", 11.0),
    ];
    let before = SnapshotManifest::load(&dir).unwrap();
    let report = sync_append(&dir, tail.clone(), 7).unwrap();
    assert_eq!(report.manifest.generation, 7);
    assert_eq!(report.shards_encoded, 1);
    assert_eq!(report.shards_reused, base_shards);
    assert!(!report.catalog_changed);
    assert_eq!(report.rows, log.len() + tail.len());
    for (old_entry, new_entry) in before.shards.iter().zip(&report.manifest.shards) {
        assert_eq!(old_entry.fingerprint, new_entry.fingerprint);
    }

    // The appended store equals a from-scratch ingest.
    let mut expected = log.clone();
    for record in &tail {
        expected.push(record.clone());
    }
    expected.rebuild_catalogs();
    assert_eq!(open(&dir).unwrap().to_log(), expected);

    // An empty tail is a keep-everything no-op sync.
    let idle = sync_append(&dir, Vec::new(), 8).unwrap();
    assert_eq!(idle.shards_encoded, 0);
    assert_eq!(idle.shards_reused, base_shards + 1);

    // A tail that moves the schema re-encodes every segment from its
    // on-disk records — slower, still correct.
    let oddball = vec![ExecutionRecord::job("job_new_schema")
        .with_feature("inputsize", 1.0e9)
        .with_feature("pigscript", "script_9.pig")
        .with_feature("brand_new_knob", 3.0)
        .with_feature("duration", 5.0)];
    let report = sync_append(&dir, oddball.clone(), 9).unwrap();
    assert!(report.catalog_changed);
    assert_eq!(report.shards_reused, 0);
    assert_eq!(report.shards_encoded, base_shards + 2);
    for record in &oddball {
        expected.push(record.clone());
    }
    expected.rebuild_catalogs();
    assert_eq!(open(&dir).unwrap().to_log(), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sync_reencodes_everything_when_the_catalog_moves() {
    let log = sample_log();
    let shards: Vec<RecordShard> = log
        .records()
        .chunks(5)
        .enumerate()
        .map(|(i, chunk)| RecordShard {
            records: chunk.to_vec(),
            source_fingerprint: Some(i as u64),
        })
        .collect();
    let count = shards.len();
    let dir = test_dir("catalog_move");
    persist_shards(&dir, shards.clone()).unwrap();

    // The dirty shard introduces a brand-new feature: every segment's
    // schema is stale now.
    let mut dirty = shards[0].clone();
    dirty.records[0].set_feature("brand_new_metric", 42.0);
    dirty.source_fingerprint = Some(555);
    let mut inputs: Vec<ShardInput> = vec![ShardInput::Fresh(dirty.clone())];
    for shard in &shards[1..] {
        inputs.push(ShardInput::Unchanged {
            source_fingerprint: shard.source_fingerprint.unwrap(),
        });
    }
    let report = sync(&dir, inputs).unwrap();
    assert!(report.catalog_changed);
    assert_eq!(report.shards_encoded, count);
    assert_eq!(report.shards_reused, 0);

    let mut expected = ExecutionLog::new();
    for record in dirty
        .records
        .iter()
        .chain(shards[1..].iter().flat_map(|s| s.records.iter()))
    {
        expected.push(record.clone());
    }
    expected.rebuild_catalogs();
    let snapshot = open(&dir).unwrap();
    assert_eq!(snapshot.to_log(), expected);
    assert!(snapshot
        .catalog(ExecutionKind::Job)
        .get("brand_new_metric")
        .is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sync_rejects_stale_reuse_claims() {
    let dir = test_dir("stale_claim");
    persist_shards(
        &dir,
        vec![RecordShard {
            records: sample_log().records().to_vec(),
            source_fingerprint: Some(1),
        }],
    )
    .unwrap();
    let err = sync(
        &dir,
        vec![ShardInput::Unchanged {
            source_fingerprint: 2,
        }],
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::SnapshotCorrupt { .. }), "{err}");
    // And a reuse claim past the manifest's shard count.
    let err = sync(
        &dir,
        vec![
            ShardInput::Unchanged {
                source_fingerprint: 1,
            },
            ShardInput::Unchanged {
                source_fingerprint: 1,
            },
        ],
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::SnapshotCorrupt { .. }), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Records of one kind with no features at all yield an empty catalog
/// and therefore a zero-column (row-count-less) store; a snapshot of
/// such a log must still round-trip — this was a live bug where the
/// row-count cross-check misreported healthy files as corrupt.
#[test]
fn featureless_records_round_trip() {
    let mut log = ExecutionLog::new();
    log.push(ExecutionRecord::job("job_0").with_feature("duration", 1.0));
    log.push(ExecutionRecord::task("task_0", "job_0"));
    log.push(ExecutionRecord::task("task_1", "job_0"));
    log.rebuild_catalogs();
    let dir = test_dir("featureless");
    persist(&log, &dir, 2).unwrap();
    let snap = open(&dir).unwrap();
    assert_eq!(snap.to_log(), log);
    assert_eq!(snap.view(ExecutionKind::Task).num_rows(), 2);
    assert_eq!(
        snap.view(ExecutionKind::Task),
        ColumnarLog::build(&log, ExecutionKind::Task)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shrinking_reingests_leave_no_orphan_segments() {
    let log = sample_log();
    let dir = test_dir("shrink");
    persist(&log, &dir, 8).unwrap();
    let wide = SnapshotManifest::load(&dir).unwrap().shards.len();
    assert!(wide > 2);
    let report = persist(&log, &dir, 2).unwrap();
    let on_disk: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|name| name.starts_with("segment-"))
        .collect();
    // Only the committed manifest's segments remain; every wide-layout
    // file was cleaned up after the manifest rename.
    assert_eq!(on_disk.len(), report.manifest.shards.len());
    for entry in &report.manifest.shards {
        assert!(on_disk.contains(&entry.file), "missing {}", entry.file);
    }
    assert_eq!(open(&dir).unwrap().to_log(), log);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn syncing_an_emptied_source_yields_an_openable_empty_snapshot() {
    let dir = test_dir("empty_sync");
    persist(&sample_log(), &dir, 3).unwrap();
    let report = sync(&dir, Vec::new()).unwrap();
    assert_eq!(report.rows, 0);
    // One padded empty shard, never a zero-shard manifest `load`
    // would reject.
    assert_eq!(report.manifest.shards.len(), 1);
    let snap = open(&dir).unwrap();
    assert_eq!(snap.num_rows(), 0);
    assert_eq!(snap.to_log(), ExecutionLog::new());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn opening_nothing_is_an_io_error() {
    let dir = test_dir("missing");
    assert!(matches!(open(&dir), Err(CoreError::SnapshotIo { .. })));
}

#[test]
fn into_views_equals_the_borrowing_paths() {
    let log = sample_log();
    let dir = test_dir("into_views");
    for shards in [1usize, 3] {
        persist(&log, &dir, shards).unwrap();
        let snapshot = open(&dir).unwrap();
        let expected_log = snapshot.to_log();
        let expected_job = snapshot.view(ExecutionKind::Job);
        let expected_task = snapshot.view(ExecutionKind::Task);
        let views = snapshot.into_views();
        assert_eq!(views.log, expected_log);
        assert_eq!(views.job, expected_job);
        assert_eq!(views.task, expected_task);
        assert_eq!(views.job, ColumnarLog::build(&log, ExecutionKind::Job));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn usage_accounts_for_every_on_disk_byte() {
    let log = sample_log();
    let dir = test_dir("usage");
    let report = persist(&log, &dir, 3).unwrap();
    let usage = report.manifest.usage();
    let on_disk: u64 = report
        .manifest
        .shards
        .iter()
        .map(|entry| std::fs::metadata(dir.join(&entry.file)).unwrap().len())
        .sum();
    assert_eq!(usage.total_bytes, on_disk);
    assert_eq!(
        usage.total_bytes,
        usage.records_bytes + usage.job_bytes + usage.task_bytes
    );
    // The v1 equivalent is strictly larger: the whole point of v2.
    assert!(
        usage.raw_bytes > usage.total_bytes,
        "raw {} vs stored {}",
        usage.raw_bytes,
        usage.total_bytes
    );
    assert!(usage.compression_ratio() > 1.0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Null features and NaN numerics are exactly what the columns cannot
/// reproduce — they must ride the exception path and come back
/// bit-identical.
#[test]
fn exceptional_values_round_trip_bit_exactly() {
    let mut log = ExecutionLog::new();
    log.push(
        ExecutionRecord::job("job_0")
            .with_feature("duration", f64::NAN)
            .with_feature("inputsize", -0.0)
            .with_feature("reducers", Value::Null),
    );
    log.push(
        ExecutionRecord::job("job_1")
            .with_feature("duration", 2.0)
            .with_feature("inputsize", f64::NEG_INFINITY),
    );
    log.rebuild_catalogs();
    let dir = test_dir("exceptions");
    persist(&log, &dir, 1).unwrap();
    let reopened = open(&dir).unwrap().to_log();
    for (original, decoded) in log.records().iter().zip(reopened.records()) {
        assert_eq!(original.id, decoded.id);
        assert_eq!(original.features.len(), decoded.features.len());
        for (name, value) in &original.features {
            let got = decoded.features.get(name).unwrap();
            assert!(
                values_identical(value, got),
                "feature '{name}': {value:?} vs {got:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Shards of `sample_log`, four records each, with stable source
/// fingerprints — the layout the salvage tests damage and repair.
fn fingerprinted_shards() -> Vec<RecordShard> {
    sample_log()
        .records()
        .chunks(4)
        .enumerate()
        .map(|(i, chunk)| RecordShard {
            records: chunk.to_vec(),
            source_fingerprint: Some(2000 + i as u64),
        })
        .collect()
}

fn flip_byte(path: &std::path::Path, offset: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[offset] ^= 0xff;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn salvage_quarantines_damage_and_keeps_healthy_shards() {
    let shards = fingerprinted_shards();
    let dir = test_dir("salvage");
    let report = persist_shards(&dir, shards.clone()).unwrap();
    assert!(report.manifest.shards.len() >= 3);
    let victim = report.manifest.shards[1].file.clone();
    flip_byte(&dir.join(&victim), 12);

    // Strict open refuses; salvage returns everything else.
    assert!(matches!(open(&dir), Err(CoreError::SnapshotCorrupt { .. })));
    let partial = open_salvage(&dir).unwrap();
    assert!(!partial.is_complete());
    assert_eq!(partial.healthy_shards(), report.manifest.shards.len() - 1);
    assert_eq!(partial.damaged_indices(), vec![1]);
    let damage = &partial.quarantined()[0];
    assert_eq!(damage.file, victim);
    assert_eq!(damage.source_fingerprint, Some(2001));
    assert!(matches!(damage.error, CoreError::SnapshotCorrupt { .. }));
    // The damaged file is renamed aside, never deleted.
    let quarantine_name = damage.quarantined_as.clone().unwrap();
    assert_eq!(quarantine_name, format!("quarantine-{victim}"));
    assert!(dir.join(&quarantine_name).exists());
    assert!(!dir.join(&victim).exists());

    // The healthy side carries exactly the undamaged records.
    let healthy_log = partial.into_snapshot().to_log();
    let expected: Vec<&ExecutionRecord> = shards
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 1)
        .flat_map(|(_, shard)| shard.records.iter())
        .collect();
    assert_eq!(healthy_log.records().len(), expected.len());
    for (got, want) in healthy_log.records().iter().zip(expected) {
        assert_eq!(got.id, want.id);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn salvage_then_targeted_sync_reencodes_only_the_damaged_shard() {
    let shards = fingerprinted_shards();
    let count = shards.len();
    let dir = test_dir("salvage_sync");
    let report = persist_shards(&dir, shards.clone()).unwrap();
    let victim = report.manifest.shards[2].file.clone();
    flip_byte(&dir.join(&victim), 20);

    let partial = open_salvage(&dir).unwrap();
    assert_eq!(partial.damaged_indices(), vec![2]);

    // Re-parse only the damaged shard "from source"; everything else is
    // an unchanged claim.
    let damaged: std::collections::BTreeSet<usize> =
        partial.damaged_indices().into_iter().collect();
    let inputs: Vec<ShardInput> = shards
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            if damaged.contains(&i) {
                ShardInput::Fresh(shard.clone())
            } else {
                ShardInput::Unchanged {
                    source_fingerprint: shard.source_fingerprint.unwrap(),
                }
            }
        })
        .collect();
    let repaired = sync(&dir, inputs).unwrap();
    assert_eq!(repaired.shards_encoded, 1, "only the damaged shard");
    assert_eq!(repaired.shards_reused, count - 1);
    assert!(!repaired.catalog_changed);

    // The repaired store equals a clean full ingest, bit for bit.
    let clean_dir = test_dir("salvage_sync_clean");
    let clean = persist_shards(&clean_dir, shards).unwrap();
    assert_eq!(repaired.manifest, clean.manifest);
    assert_eq!(
        open(&dir).unwrap().view(ExecutionKind::Job),
        open(&clean_dir).unwrap().view(ExecutionKind::Job)
    );
    // The quarantined file survives the repair.
    assert!(dir.join(format!("quarantine-{victim}")).exists());
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&clean_dir).unwrap();
}

#[test]
fn salvage_with_an_unusable_manifest_fails_typed() {
    let dir = test_dir("salvage_manifest");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(MANIFEST_FILE), r#"{"version": 1}"#).unwrap();
    assert!(matches!(
        open_salvage(&dir),
        Err(CoreError::SnapshotVersionSkew { .. })
    ));
    std::fs::write(dir.join(MANIFEST_FILE), "not json").unwrap();
    assert!(matches!(
        open_salvage(&dir),
        Err(CoreError::SnapshotCorrupt { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn verify_reports_per_shard_health_without_mutating_the_store() {
    let dir = test_dir("verify");
    let report = persist_shards(&dir, fingerprinted_shards()).unwrap();
    let healthy = verify(&dir).unwrap();
    assert_eq!(healthy.len(), report.manifest.shards.len());
    assert!(healthy.iter().all(ShardHealth::is_healthy));

    let victim = report.manifest.shards[0].file.clone();
    flip_byte(&dir.join(&victim), 9);
    let checked = verify(&dir).unwrap();
    assert!(!checked[0].is_healthy());
    assert!(matches!(
        checked[0].error,
        Some(CoreError::SnapshotCorrupt { .. })
    ));
    assert!(checked[1..].iter().all(ShardHealth::is_healthy));
    // Read-only: the damaged file is still in place under its original
    // name (verify never quarantines), and a salvage still finds it.
    assert!(dir.join(&victim).exists());
    assert_eq!(open_salvage(&dir).unwrap().damaged_indices(), vec![0]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn clean_operations_report_zero_io_retries() {
    let dir = test_dir("retries");
    let report = persist(&sample_log(), &dir, 2).unwrap();
    assert_eq!(report.io_retries, 0);
    assert_eq!(open_salvage(&dir).unwrap().io_retries(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn transient_kinds_retry_and_hard_kinds_do_not() {
    for kind in [
        std::io::ErrorKind::Interrupted,
        std::io::ErrorKind::WouldBlock,
        std::io::ErrorKind::TimedOut,
    ] {
        assert!(transient_io(kind), "{kind:?} must retry");
        let retries = AtomicU64::new(0);
        let mut failures = 2;
        let result: std::io::Result<u32> = with_io_retry(&retries, || {
            if failures > 0 {
                failures -= 1;
                Err(std::io::Error::new(kind, "flaky"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(result.unwrap(), 7);
        assert_eq!(retries.load(Ordering::Relaxed), 2);
        // A persistent transient error still fails after the bound.
        let retries = AtomicU64::new(0);
        let result: std::io::Result<u32> =
            with_io_retry(&retries, || Err(std::io::Error::new(kind, "stuck")));
        assert_eq!(result.unwrap_err().kind(), kind);
        assert_eq!(
            retries.load(Ordering::Relaxed),
            u64::from(IO_RETRY_ATTEMPTS) - 1
        );
    }
    for kind in [
        std::io::ErrorKind::NotFound,
        std::io::ErrorKind::InvalidData,
        std::io::ErrorKind::PermissionDenied,
    ] {
        assert!(!transient_io(kind), "{kind:?} must not retry");
        let retries = AtomicU64::new(0);
        let result: std::io::Result<u32> =
            with_io_retry(&retries, || Err(std::io::Error::new(kind, "hard")));
        assert_eq!(result.unwrap_err().kind(), kind);
        assert_eq!(retries.load(Ordering::Relaxed), 0);
    }
}

#[test]
fn v1_manifests_report_version_skew_naming_reingest() {
    let dir = test_dir("v1_skew");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(MANIFEST_FILE), r#"{"version": 1}"#).unwrap();
    let err = open(&dir).unwrap_err();
    match &err {
        CoreError::SnapshotVersionSkew { found, supported } => {
            assert_eq!(*found, 1);
            assert_eq!(*supported, SNAPSHOT_VERSION);
        }
        other => panic!("expected version skew, got {other:?}"),
    }
    assert!(err.to_string().contains("re-ingest"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

fn journal_batch(tag: u64, count: usize) -> Vec<ExecutionRecord> {
    (0..count)
        .map(|i| {
            ExecutionRecord::job(format!("job_{tag}_{i}"))
                .with_feature("inputsize", (tag * 100 + i as u64) as f64)
                .with_feature("pigscript", format!("script_{tag}.pig"))
        })
        .collect()
}

#[test]
fn journal_frames_round_trip_through_create_append_read() {
    let dir = test_dir("journal_roundtrip");
    let mut journal = Journal::create(&dir, FsyncPolicy::Always).unwrap();
    let batches: Vec<Vec<ExecutionRecord>> = (0..4).map(|tag| journal_batch(tag, 3)).collect();
    let mut rows = 10u64; // pretend the manifest already holds 10 rows
    for batch in &batches {
        let durable = journal.append_batch(rows, batch).unwrap();
        assert!(durable, "Always must ack durable");
        rows += batch.len() as u64;
    }
    let stats = journal.stats();
    assert_eq!(stats.frames_appended, 4);
    assert_eq!(stats.fsyncs, 4);
    assert!(stats.bytes > JOURNAL_HEADER_BYTES);
    drop(journal);

    let replay = read_journal(&dir).unwrap();
    assert_eq!(replay.frames_truncated, 0);
    assert_eq!(replay.batches.len(), 4);
    let mut expected_rows = 10u64;
    for (batch, expected) in replay.batches.iter().zip(&batches) {
        assert_eq!(batch.start_rows, expected_rows);
        assert_eq!(&batch.records, expected);
        expected_rows += expected.len() as u64;
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fsync_policies_control_the_durable_flag() {
    let dir = test_dir("journal_policies");
    let mut journal = Journal::create(&dir, FsyncPolicy::EveryN(3)).unwrap();
    assert!(!journal.append_batch(0, &journal_batch(0, 1)).unwrap());
    assert!(!journal.append_batch(1, &journal_batch(1, 1)).unwrap());
    assert!(journal.append_batch(2, &journal_batch(2, 1)).unwrap());
    assert_eq!(journal.stats().fsyncs, 1);

    let mut journal = Journal::create(&dir, FsyncPolicy::OnCheckpoint).unwrap();
    assert!(!journal.append_batch(0, &journal_batch(0, 1)).unwrap());
    assert_eq!(journal.stats().fsyncs, 0);
    journal.sync().unwrap();
    assert_eq!(journal.stats().fsyncs, 1);
    journal.sync().unwrap(); // nothing pending: no extra fsync
    assert_eq!(journal.stats().fsyncs, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_and_corrupt_tails_truncate_to_the_last_valid_frame() {
    let dir = test_dir("journal_torn");
    let path = dir.join(JOURNAL_FILE);
    let mut journal = Journal::create(&dir, FsyncPolicy::Always).unwrap();
    journal.append_batch(0, &journal_batch(0, 2)).unwrap();
    let good_bytes = journal.stats().bytes;
    journal.append_batch(2, &journal_batch(1, 2)).unwrap();
    drop(journal);

    // Torn tail: cut the second frame short.
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..(good_bytes as usize + 5)]).unwrap();
    let replay = read_journal(&dir).unwrap();
    assert_eq!(replay.frames_truncated, 1);
    assert_eq!(replay.batches.len(), 1);
    assert_eq!(replay.bytes, good_bytes);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), good_bytes);

    // Corrupt tail: restore, flip a byte inside the second frame.
    let mut flipped = full.clone();
    let at = good_bytes as usize + 20;
    flipped[at] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    let replay = read_journal(&dir).unwrap();
    assert_eq!(replay.frames_truncated, 1);
    assert_eq!(replay.batches.len(), 1);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), good_bytes);

    // A clobbered header is fully damaged: nothing replays.
    std::fs::write(&path, b"garbage").unwrap();
    let replay = read_journal(&dir).unwrap();
    assert_eq!(replay.frames_truncated, 1);
    assert!(replay.batches.is_empty());
    assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);

    // A missing journal replays nothing and is not damage.
    std::fs::remove_file(&path).unwrap();
    let replay = read_journal(&dir).unwrap();
    assert_eq!(replay.frames_truncated, 0);
    assert!(replay.batches.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn verify_journal_reports_damage_without_truncating() {
    let dir = test_dir("journal_verify");
    let path = dir.join(JOURNAL_FILE);
    assert!(!verify_journal(&dir).unwrap().present);

    let mut journal = Journal::create(&dir, FsyncPolicy::Always).unwrap();
    journal.append_batch(0, &journal_batch(0, 2)).unwrap();
    journal.append_batch(2, &journal_batch(1, 3)).unwrap();
    drop(journal);
    let health = verify_journal(&dir).unwrap();
    assert!(health.present && health.is_healthy());
    assert_eq!(health.frames, 2);
    assert_eq!(health.records, 5);

    let full = std::fs::read(&path).unwrap();
    let mut flipped = full.clone();
    let last = flipped.len() - 3;
    flipped[last] ^= 0x01;
    std::fs::write(&path, &flipped).unwrap();
    let health = verify_journal(&dir).unwrap();
    assert!(!health.is_healthy());
    assert_eq!(health.frames, 1);
    // Read-only: the file is untouched.
    assert_eq!(std::fs::read(&path).unwrap(), flipped);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rotation_stages_then_swaps_and_resets_bytes() {
    let dir = test_dir("journal_rotation");
    let mut journal = Journal::create(&dir, FsyncPolicy::Always).unwrap();
    journal.append_batch(0, &journal_batch(0, 2)).unwrap();
    journal.begin_rotation().unwrap();
    // Old journal still replayable while the next one is staged.
    assert_eq!(read_journal(&dir).unwrap().batches.len(), 1);
    assert!(dir.join(JOURNAL_TMP_FILE).exists());
    journal.commit_rotation(7).unwrap();
    assert!(!dir.join(JOURNAL_TMP_FILE).exists());
    let stats = journal.stats();
    assert_eq!(stats.bytes, JOURNAL_HEADER_BYTES);
    assert_eq!(stats.last_rotation_generation, 7);
    assert!(read_journal(&dir).unwrap().batches.is_empty());
    // Appends land in the rotated journal.
    journal.append_batch(2, &journal_batch(9, 1)).unwrap();
    drop(journal);
    let replay = read_journal(&dir).unwrap();
    assert_eq!(replay.batches.len(), 1);
    assert_eq!(replay.batches[0].start_rows, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn create_resets_and_resume_continues() {
    let dir = test_dir("journal_resume");
    let mut journal = Journal::create(&dir, FsyncPolicy::Always).unwrap();
    journal.append_batch(0, &journal_batch(0, 2)).unwrap();
    drop(journal);

    // Resume picks up after the surviving frames.
    let replay = read_journal(&dir).unwrap();
    let mut journal = Journal::resume(&dir, FsyncPolicy::Always, &replay, 1).unwrap();
    assert_eq!(journal.stats().frames_replayed, 1);
    journal.append_batch(2, &journal_batch(1, 1)).unwrap();
    drop(journal);
    assert_eq!(read_journal(&dir).unwrap().batches.len(), 2);

    // Create discards whatever was there.
    let journal = Journal::create(&dir, FsyncPolicy::Always).unwrap();
    drop(journal);
    assert!(read_journal(&dir).unwrap().batches.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn full_persists_drop_stale_journals() {
    let dir = test_dir("journal_stale");
    let log = sample_log();
    persist(&log, &dir, 2).unwrap();
    let mut journal = Journal::create(&dir, FsyncPolicy::Always).unwrap();
    journal
        .append_batch(log.len() as u64, &journal_batch(0, 2))
        .unwrap();
    drop(journal);
    assert!(dir.join(JOURNAL_FILE).exists());
    // A full rewrite re-describes the world: the journal must not
    // survive to replay unrelated history.
    persist(&log, &dir, 2).unwrap();
    assert!(!dir.join(JOURNAL_FILE).exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fsync_policies_parse_and_display() {
    use std::str::FromStr;
    assert_eq!(
        FsyncPolicy::from_str("always").unwrap(),
        FsyncPolicy::Always
    );
    assert_eq!(
        FsyncPolicy::from_str("every:8").unwrap(),
        FsyncPolicy::EveryN(8)
    );
    assert_eq!(
        FsyncPolicy::from_str("every=3").unwrap(),
        FsyncPolicy::EveryN(3)
    );
    assert_eq!(
        FsyncPolicy::from_str("oncheckpoint").unwrap(),
        FsyncPolicy::OnCheckpoint
    );
    assert_eq!(
        FsyncPolicy::from_str("checkpoint").unwrap(),
        FsyncPolicy::OnCheckpoint
    );
    assert!(FsyncPolicy::from_str("every:0").is_err());
    assert!(FsyncPolicy::from_str("sometimes").is_err());
    assert_eq!(FsyncPolicy::EveryN(8).to_string(), "every:8");
    assert_eq!(FsyncPolicy::Always.to_string(), "always");
}
