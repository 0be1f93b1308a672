//! Writing the store: the one commit path behind every persist and sync.

use super::journal::remove_stale_journal;
use super::manifest::{ShardEntry, SnapshotManifest, MANIFEST_FILE};
use super::scan::{fan_out, scan, ScanDepth};
use super::segment::{encode_shard_file, ShardSizes};
use super::{create_dir, fingerprint_bytes, write_file, SNAPSHOT_VERSION};
use crate::error::{CoreError, Result};
use crate::features::FeatureCatalog;
use crate::record::{ExecutionKind, ExecutionLog, ExecutionRecord};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One shard of records headed for a snapshot, with the fingerprint of the
/// source it was parsed from (when there is one).
#[derive(Debug, Clone)]
pub struct RecordShard {
    /// The shard's records, in ingest order.
    pub records: Vec<ExecutionRecord>,
    /// Fingerprint of the raw source behind these records (e.g. bundle
    /// file bytes), recorded in the manifest so a later [`sync`] can skip
    /// the shard when the source has not changed.
    pub source_fingerprint: Option<u64>,
}

/// What a [`persist`] / [`persist_shards`] / [`sync`] call did.
#[derive(Debug, Clone)]
pub struct SyncReport {
    /// The manifest that now describes the snapshot directory.
    pub manifest: SnapshotManifest,
    /// Total records across all shards.
    pub rows: usize,
    /// Shards whose segments were (re-)encoded and written.
    pub shards_encoded: usize,
    /// Shards served from disk untouched (source fingerprint matched and
    /// the global catalog was stable).
    pub shards_reused: usize,
    /// Whether the merged global catalog changed, forcing every segment to
    /// re-encode from its on-disk records ([`sync`] only).
    pub catalog_changed: bool,
    /// Wall-clock seconds spent encoding segments (CPU).
    pub encode_seconds: f64,
    /// Wall-clock seconds spent writing files and the manifest (I/O).
    pub write_seconds: f64,
    /// Transient IO errors (`Interrupted` / `WouldBlock` / `TimedOut`)
    /// absorbed by in-place retry during this operation.  Persistently
    /// non-zero numbers mean the storage under the snapshot directory is
    /// flaky even though the operation succeeded.
    pub io_retries: u64,
}

/// Persists a log as `num_shards` contiguous segments (at least one, even
/// for an empty log).  Overwrites whatever snapshot was in `dir`.
pub fn persist(log: &ExecutionLog, dir: &Path, num_shards: usize) -> Result<SyncReport> {
    let records = log.records();
    let chunk_size = records.len().div_ceil(num_shards.max(1)).max(1);
    let shards = records
        .chunks(chunk_size)
        .map(|chunk| {
            ShardInput::Fresh(RecordShard {
                records: chunk.to_vec(),
                source_fingerprint: None,
            })
        })
        .collect();
    commit(dir, None, shards, log.generation(), &AtomicU64::new(0))
}

/// Persists explicit record shards (e.g. one per bundle batch, so the shard
/// boundaries — and therefore the source fingerprints — are stable across
/// re-ingests).  Overwrites whatever snapshot was in `dir`; this is also
/// the recovery path when [`open`](super::open) or [`sync`] report corruption.
pub fn persist_shards(dir: &Path, shards: Vec<RecordShard>) -> Result<SyncReport> {
    let inputs = shards.into_iter().map(ShardInput::Fresh).collect();
    commit(dir, None, inputs, 1, &AtomicU64::new(0))
}

/// Segment file names embed the content fingerprint, so a re-encoded shard
/// gets a *new* file and the previously committed one is never overwritten
/// in place: a crash between segment writes and the manifest's atomic
/// write-then-rename leaves — at worst — unreferenced new files behind,
/// never a manifest pointing at bytes it does not describe.
fn segment_file_name(index: usize, fingerprint: u64) -> String {
    format!("segment-{index:04}-{fingerprint:016x}.bin")
}

/// Best-effort removal of `segment-*.bin` files the committed manifest no
/// longer references: superseded versions of re-encoded shards, shards
/// dropped by a shrinking re-ingest, and leftovers of crashed writes.
/// Failures are ignored — an orphan costs disk, never correctness.
fn remove_orphan_segments(dir: &Path, manifest: &SnapshotManifest) {
    let referenced: std::collections::BTreeSet<&str> =
        manifest.shards.iter().map(|s| s.file.as_str()).collect();
    let Ok(listing) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in listing.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("segment-") && name.ends_with(".bin") && !referenced.contains(name) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

fn infer_catalogs(records: &[ExecutionRecord]) -> (FeatureCatalog, FeatureCatalog) {
    (
        FeatureCatalog::infer(
            records
                .iter()
                .filter(|r| r.kind == ExecutionKind::Job)
                .map(|r| &r.features),
        ),
        FeatureCatalog::infer(
            records
                .iter()
                .filter(|r| r.kind == ExecutionKind::Task)
                .map(|r| &r.features),
        ),
    )
}

// ---------------------------------------------------------------------------
// Incremental sync
// ---------------------------------------------------------------------------

/// One shard of input to an incremental [`sync`].
#[derive(Debug, Clone)]
pub enum ShardInput {
    /// The shard's source still fingerprints to this value (matching the
    /// manifest): reuse the stored segment without re-parsing or
    /// re-encoding anything.
    Unchanged {
        /// Fingerprint of the (unchanged) source; must equal the
        /// manifest's recorded `source_fingerprint` for this position.
        source_fingerprint: u64,
    },
    /// The shard's source changed (or is new): these are its freshly
    /// parsed records.
    Fresh(RecordShard),
    /// Keep the shard at this position exactly as the manifest records it,
    /// with no source-fingerprint bookkeeping — unlike
    /// [`ShardInput::Unchanged`], this works for shards persisted without a
    /// source fingerprint (e.g. by [`persist`]).  The segment's *content*
    /// fingerprint is still verified.  This is the checkpoint path: a
    /// serving process appending a tail shard ([`sync_append`]) keeps every
    /// existing shard by position without knowing how it was ingested.
    Keep,
}

/// Incrementally re-ingests into an existing snapshot: shards marked
/// [`ShardInput::Unchanged`] keep their on-disk segments (verified by
/// fingerprint bookkeeping — the reused entries carry their recorded
/// content fingerprints forward, and the files are not rewritten), while
/// fresh shards are encoded and written.  If the merged feature catalog
/// changes, every stored segment's schema is stale and all shards re-encode
/// from their on-disk records — the original source is still not touched.
/// The manifest records generation 1, that of a freshly ingested log.
///
/// Fails with a typed error when `dir` holds no (or a corrupt or
/// version-skewed) snapshot, or when an `Unchanged` shard's fingerprint
/// does not match the manifest; the recovery path is a full
/// [`persist_shards`] with every shard fresh.
pub fn sync(dir: &Path, inputs: Vec<ShardInput>) -> Result<SyncReport> {
    let retries = AtomicU64::new(0);
    let old = SnapshotManifest::load_with_retries(dir, &retries)?;
    // An emptied source is a full rewrite down to one empty shard — a
    // zero-shard manifest would be unreadable (`load` rejects it).
    let old = (!inputs.is_empty()).then_some(&old);
    commit(dir, old, inputs, 1, &retries)
}

/// Persists `tail` — the records appended since the snapshot in `dir` was
/// last written — as **one additional incremental shard**, keeping every
/// existing shard verbatim ([`ShardInput::Keep`]).  This is the live-tail
/// checkpoint: a serving process that has only appended since its last
/// [`persist`] encodes O(tail) records instead of re-encoding the world.
/// When the tail introduces features the stored catalog has never seen the
/// schema moved, and every segment transparently re-encodes from its
/// on-disk records — slower, still correct, still no source re-parse.
/// `generation` is the served log's generation, recorded in the manifest.
///
/// An empty tail degenerates to a keep-everything sync: the stored
/// segments are fingerprint-verified and the manifest rewritten, nothing
/// re-encoded.
pub fn sync_append(dir: &Path, tail: Vec<ExecutionRecord>, generation: u64) -> Result<SyncReport> {
    let retries = AtomicU64::new(0);
    let old = SnapshotManifest::load_with_retries(dir, &retries)?;
    let mut inputs = vec![ShardInput::Keep; old.shards.len()];
    if !tail.is_empty() {
        inputs.push(ShardInput::Fresh(RecordShard {
            records: tail,
            source_fingerprint: None,
        }));
    }
    commit(dir, Some(&old), inputs, generation, &retries)
}

// ---------------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------------

/// The store's one commit path, behind [`persist`], [`persist_shards`],
/// [`sync`] and [`sync_append`]: writes `inputs` (no inputs stand for one
/// empty shard) as the snapshot in `dir` and commits the manifest with
/// `generation`.
///
/// Shards the caller keeps ([`ShardInput::Unchanged`], [`ShardInput::Keep`])
/// must exist in `old`.  They are [`scan`]ned before anything is written:
/// fingerprint-verified while the merged catalog is unchanged (their
/// entries carry over verbatim), or decoded and re-encoded against the new
/// catalog when it moved.  Fresh shards are encoded and written under
/// content-addressed names, then the manifest is committed atomically and
/// the superseded segments and the stale journal are swept.
fn commit(
    dir: &Path,
    old: Option<&SnapshotManifest>,
    mut inputs: Vec<ShardInput>,
    generation: u64,
    retries: &AtomicU64,
) -> Result<SyncReport> {
    if inputs.is_empty() {
        inputs.push(ShardInput::Fresh(RecordShard {
            records: Vec::new(),
            source_fingerprint: None,
        }));
    }
    let old_shards: &[ShardEntry] = old.map_or(&[], |old| &old.shards);

    // Validate every reuse claim against the manifest before doing work.
    let manifest_path = || dir.join(MANIFEST_FILE).display().to_string();
    for (i, input) in inputs.iter().enumerate() {
        match input {
            ShardInput::Unchanged { source_fingerprint } => {
                let recorded = old_shards.get(i).and_then(|e| e.source_fingerprint);
                if recorded != Some(*source_fingerprint) {
                    return Err(CoreError::SnapshotCorrupt {
                        path: manifest_path(),
                        message: format!(
                            "shard {i} cannot be reused: manifest records source fingerprint \
                             {recorded:?}, caller observed {source_fingerprint:016x}"
                        ),
                    });
                }
            }
            ShardInput::Keep if old_shards.get(i).is_none() => {
                return Err(CoreError::SnapshotCorrupt {
                    path: manifest_path(),
                    message: format!(
                        "shard {i} cannot be kept: the manifest records only {} shards",
                        old_shards.len()
                    ),
                });
            }
            _ => {}
        }
    }

    // Per-shard catalogs: inference for fresh shards, the stored entries
    // for kept ones; then the global merge in input order.
    let inferred = fan_out(&inputs, |input| match input {
        ShardInput::Fresh(shard) => Some(infer_catalogs(&shard.records)),
        ShardInput::Unchanged { .. } | ShardInput::Keep => None,
    });
    let mut job_catalog = FeatureCatalog::new();
    let mut task_catalog = FeatureCatalog::new();
    let mut entry_catalogs = Vec::with_capacity(inputs.len());
    for (i, local) in inferred.into_iter().enumerate() {
        let (job, task) = local.unwrap_or_else(|| {
            let entry = &old_shards[i];
            (entry.job_catalog.clone(), entry.task_catalog.clone())
        });
        job_catalog.merge(&job);
        task_catalog.merge(&task);
        entry_catalogs.push((job, task));
    }
    let catalog_changed =
        old.is_some_and(|old| job_catalog != old.job_catalog || task_catalog != old.task_catalog);

    // Kept segments are served from disk afterwards, so their content must
    // verify now — a corrupted store fails this commit with a typed error
    // instead of surfacing at the next open.  When the schema moved, their
    // records also come off disk to re-encode against the new catalog.
    let kept: Vec<usize> = (0..inputs.len())
        .filter(|&i| !matches!(inputs[i], ShardInput::Fresh(_)))
        .collect();
    let mut reloaded = BTreeMap::new();
    if let Some(old) = old {
        let depth = if catalog_changed {
            ScanDepth::Decode
        } else {
            ScanDepth::Fingerprint
        };
        for (&i, scanned) in kept.iter().zip(scan(dir, old, &kept, depth, retries)) {
            if let Some(shard) = scanned? {
                reloaded.insert(i, shard.records);
            }
        }
    }

    // Encode the fresh shards and, when the schema moved, the kept ones.
    let encode_started = Instant::now();
    let jobs: Vec<(usize, &[ExecutionRecord])> = inputs
        .iter()
        .enumerate()
        .filter_map(|(i, input)| match input {
            ShardInput::Fresh(shard) => Some((i, shard.records.as_slice())),
            ShardInput::Unchanged { .. } | ShardInput::Keep => {
                reloaded.get(&i).map(|records| (i, records.as_slice()))
            }
        })
        .collect();
    let files = fan_out(&jobs, |(_, records)| {
        encode_shard_file(records, &job_catalog, &task_catalog)
    });
    let mut encoded: BTreeMap<usize, (u64, Vec<u8>, ShardSizes)> = jobs
        .iter()
        .zip(files)
        .map(|(&(i, records), (bytes, sizes))| (i, (records.len() as u64, bytes, sizes)))
        .collect();
    let encode_seconds = encode_started.elapsed().as_secs_f64();

    // Write the encoded files and assemble the new manifest.
    let write_started = Instant::now();
    create_dir(dir, retries)?;
    let mut entries = Vec::with_capacity(inputs.len());
    let mut shards_encoded = 0usize;
    let mut shards_reused = 0usize;
    for (i, (input, (job_local, task_local))) in inputs.iter().zip(entry_catalogs).enumerate() {
        let Some((rows, bytes, sizes)) = encoded.remove(&i) else {
            // Kept verbatim: its entry (catalogs included) carries over.
            shards_reused += 1;
            entries.push(old_shards[i].clone());
            continue;
        };
        shards_encoded += 1;
        let source_fingerprint = match input {
            ShardInput::Fresh(shard) => shard.source_fingerprint,
            ShardInput::Unchanged { .. } | ShardInput::Keep => old_shards[i].source_fingerprint,
        };
        let fingerprint = fingerprint_bytes(&bytes);
        let file = segment_file_name(i, fingerprint);
        write_file(&dir.join(&file), "snapshot.segment.write", retries, &bytes)?;
        entries.push(ShardEntry {
            file,
            rows,
            fingerprint,
            source_fingerprint,
            bytes: sizes.total,
            job_bytes: sizes.job,
            task_bytes: sizes.task,
            raw_bytes: sizes.raw,
            job_catalog: job_local,
            task_catalog: task_local,
        });
    }
    let manifest = SnapshotManifest {
        version: SNAPSHOT_VERSION,
        generation,
        job_catalog,
        task_catalog,
        shards: entries,
    };
    manifest.save(dir, retries)?;
    remove_orphan_segments(dir, &manifest);
    remove_stale_journal(dir);
    let write_seconds = write_started.elapsed().as_secs_f64();

    Ok(SyncReport {
        rows: manifest.rows(),
        shards_encoded,
        shards_reused,
        catalog_changed,
        encode_seconds,
        write_seconds,
        io_retries: retries.load(Ordering::Relaxed),
        manifest,
    })
}
