//! Reading the store: the one shard scan and the opens and health check
//! built on it.

use super::manifest::{SnapshotManifest, MANIFEST_FILE};
use super::segment::{load_shard, SnapshotShard};
use super::{fingerprint_bytes, read_file, rename_file};
use crate::columnar::ColumnarLog;
use crate::error::{CoreError, Result};
use crate::features::FeatureCatalog;
use crate::record::{ExecutionKind, ExecutionLog};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fully loaded, fingerprint-verified snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    manifest: SnapshotManifest,
    shards: Vec<SnapshotShard>,
}

impl Snapshot {
    /// The manifest the snapshot was opened with.
    pub fn manifest(&self) -> &SnapshotManifest {
        &self.manifest
    }

    /// The loaded shards, in manifest order.
    pub fn shards(&self) -> &[SnapshotShard] {
        &self.shards
    }

    /// The merged global catalog of one kind.
    pub fn catalog(&self, kind: ExecutionKind) -> &FeatureCatalog {
        self.manifest.catalog(kind)
    }

    /// Total records across all shards.
    pub fn num_rows(&self) -> usize {
        self.shards.iter().map(|s| s.records.len()).sum()
    }

    /// Reassembles the [`ExecutionLog`]: records concatenated and shard
    /// catalogs merged **in manifest order** ([`ExecutionLog::from_shards`]),
    /// which equals a serial ingest of the same records.
    pub fn to_log(&self) -> ExecutionLog {
        ExecutionLog::from_shards(
            self.shards
                .iter()
                .map(SnapshotShard::to_shard_log)
                .collect(),
        )
    }

    /// Assembles the columnar view of one kind without re-encoding
    /// (see [`ColumnarLog::build_from_snapshot`]).
    pub fn view(&self, kind: ExecutionKind) -> ColumnarLog {
        ColumnarLog::build_from_snapshot(self, kind)
    }

    /// Consumes the snapshot into the reassembled log plus both columnar
    /// views, moving the decoded segments instead of cloning them: the
    /// `Arc`-backed column buffers decoded off disk are the ones the views
    /// end up holding (adopted outright for single-segment snapshots), so
    /// peak memory during a cold open is approximately the final views
    /// plus the log — not 2–3× it, as the clone-per-view path costs.
    ///
    /// The results are bit-identical to [`Snapshot::to_log`] and
    /// [`Snapshot::view`] on the same snapshot.
    pub fn into_views(self) -> SnapshotViews {
        let Snapshot { manifest, shards } = self;
        let mut shard_logs = Vec::with_capacity(shards.len());
        let mut job_segments = Vec::with_capacity(shards.len());
        let mut task_segments = Vec::with_capacity(shards.len());
        let mut job_records = Vec::new();
        let mut task_records = Vec::new();
        for shard in shards {
            // The one unavoidable record clone: both the log and the views
            // own their records.  Segments are moved.
            shard_logs.push(ExecutionLog::from_parts(
                shard.records.clone(),
                shard.job_catalog,
                shard.task_catalog,
            ));
            job_segments.push(shard.job);
            task_segments.push(shard.task);
            for record in shard.records {
                match record.kind {
                    ExecutionKind::Job => job_records.push(record),
                    ExecutionKind::Task => task_records.push(record),
                }
            }
        }
        let log = ExecutionLog::from_shards(shard_logs);
        let job = ColumnarLog::assemble(
            ExecutionKind::Job,
            &manifest.job_catalog,
            job_records,
            job_segments,
        );
        let task = ColumnarLog::assemble(
            ExecutionKind::Task,
            &manifest.task_catalog,
            task_records,
            task_segments,
        );
        SnapshotViews { log, job, task }
    }
}

/// A snapshot consumed into its queryable parts ([`Snapshot::into_views`]):
/// the reassembled log and the two columnar views, sharing no redundant
/// copies of the column data.
#[derive(Debug, Clone)]
pub struct SnapshotViews {
    /// The reassembled execution log (records + merged catalogs).
    pub log: ExecutionLog,
    /// The job view, bit-identical to `ColumnarLog::build` over `log`.
    pub job: ColumnarLog,
    /// The task view, bit-identical to `ColumnarLog::build` over `log`.
    pub task: ColumnarLog,
}

/// Maps `f` over `items` on one [`crate::shard::map_chunks`] fan-out (one
/// chunk per hardware thread) and returns the results in item order.
pub(super) fn fan_out<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    crate::shard::map_chunks(
        items,
        crate::shard::hardware_threads().min(items.len()),
        |chunk| chunk.iter().map(&f).collect::<Vec<R>>(),
    )
    .into_iter()
    .flatten()
    .collect()
}

/// How deep [`scan`] reads each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ScanDepth {
    /// Read the segment file and check its content fingerprint; decode
    /// nothing.
    Fingerprint,
    /// Also decode the segment ([`load_shard`]) and check it against its
    /// manifest entry and the global catalogs.
    Decode,
}

/// The store's one shard scan: reads the manifest entries at `indices` on
/// one fan-out, fingerprint-verifies each segment file and, at
/// [`ScanDepth::Decode`], loads it.  Returns one result per index, in the
/// order given — `Some(shard)` when decoded, `None` at
/// [`ScanDepth::Fingerprint`].  A damaged shard fails only its own slot.
pub(super) fn scan(
    dir: &Path,
    manifest: &SnapshotManifest,
    indices: &[usize],
    depth: ScanDepth,
    retries: &AtomicU64,
) -> Vec<Result<Option<SnapshotShard>>> {
    fan_out(indices, |&index| {
        let entry = &manifest.shards[index];
        let path = dir.join(&entry.file);
        let corrupt = |message: String| CoreError::SnapshotCorrupt {
            path: path.display().to_string(),
            message,
        };
        let bytes = read_file(&path, "snapshot.segment.read", retries)?;
        let found = fingerprint_bytes(&bytes);
        if found != entry.fingerprint {
            return Err(corrupt(format!(
                "fingerprint mismatch: manifest records {:016x}, file hashes to {found:016x}",
                entry.fingerprint
            )));
        }
        match depth {
            ScanDepth::Fingerprint => Ok(None),
            ScanDepth::Decode => load_shard(&bytes, entry, manifest)
                .map(Some)
                .map_err(corrupt),
        }
    })
}

/// Opens a snapshot directory: manifest first, then every segment file
/// loaded and fingerprint-verified by one shard scan, assembled in manifest
/// order.  The lowest-index damaged shard names the error.
pub fn open(dir: &Path) -> Result<Snapshot> {
    let retries = AtomicU64::new(0);
    let manifest = SnapshotManifest::load_with_retries(dir, &retries)?;
    let all: Vec<usize> = (0..manifest.shards.len()).collect();
    let shards: Vec<SnapshotShard> = scan(dir, &manifest, &all, ScanDepth::Decode, &retries)
        .into_iter()
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .flatten()
        .collect();

    // The manifest's global catalogs must be exactly the merge of the
    // per-shard catalogs — otherwise `to_log` and the stored segments
    // would disagree about the schema.
    let mut job_catalog = FeatureCatalog::new();
    let mut task_catalog = FeatureCatalog::new();
    for shard in &shards {
        job_catalog.merge(&shard.job_catalog);
        task_catalog.merge(&shard.task_catalog);
    }
    if job_catalog != manifest.job_catalog || task_catalog != manifest.task_catalog {
        return Err(CoreError::SnapshotCorrupt {
            path: dir.join(MANIFEST_FILE).display().to_string(),
            message: "global catalogs are not the merge of the per-shard catalogs".to_string(),
        });
    }
    Ok(Snapshot { manifest, shards })
}

// ---------------------------------------------------------------------------
// Salvage opens and health checks
// ---------------------------------------------------------------------------

/// What happened to one shard that failed verification during
/// [`open_salvage`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardDamage {
    /// The shard's position in the manifest.
    pub index: usize,
    /// The segment file the manifest references.
    pub file: String,
    /// Where the damaged file was renamed to (`quarantine-…`, same
    /// directory), or `None` when the file was missing or the rename
    /// itself failed — it is never deleted either way.
    pub quarantined_as: Option<String>,
    /// Why the shard failed verification.
    pub error: CoreError,
    /// The shard's recorded source fingerprint, so the caller can map the
    /// damage back to the source it must re-parse.
    pub source_fingerprint: Option<u64>,
    /// Rows the manifest records for the shard.
    pub rows: u64,
}

/// The result of a lenient [`open_salvage`]: every shard that verified,
/// plus a damage report for every shard that did not.
///
/// The healthy side behaves like a pruned [`Snapshot`]
/// ([`PartialSnapshot::into_snapshot`]); the damaged side is exactly what a
/// targeted [`sync`](super::sync) needs to re-encode — each [`ShardDamage`] carries the
/// manifest index and source fingerprint, so the caller re-parses *only*
/// those sources and passes everything else as [`ShardInput::Unchanged`](super::ShardInput::Unchanged).
#[derive(Debug, Clone)]
pub struct PartialSnapshot {
    manifest: SnapshotManifest,
    healthy: Vec<(usize, SnapshotShard)>,
    quarantined: Vec<ShardDamage>,
    io_retries: u64,
}

impl PartialSnapshot {
    /// The full on-disk manifest, damaged entries included.
    pub fn manifest(&self) -> &SnapshotManifest {
        &self.manifest
    }

    /// Damage reports, in manifest order.
    pub fn quarantined(&self) -> &[ShardDamage] {
        &self.quarantined
    }

    /// Manifest indices of the damaged shards, ascending.
    pub fn damaged_indices(&self) -> Vec<usize> {
        self.quarantined.iter().map(|d| d.index).collect()
    }

    /// How many shards verified clean.
    pub fn healthy_shards(&self) -> usize {
        self.healthy.len()
    }

    /// `true` when every shard verified — the salvage open found nothing
    /// to quarantine and equals a strict [`open`].
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Rows across the healthy shards only.
    pub fn num_rows(&self) -> usize {
        self.healthy
            .iter()
            .map(|(_, shard)| shard.records.len())
            .sum()
    }

    /// Transient-IO retries performed during the salvage open.
    pub fn io_retries(&self) -> u64 {
        self.io_retries
    }

    /// Consumes the partial snapshot into a [`Snapshot`] over the healthy
    /// shards only (manifest pruned to their entries, in manifest order).
    /// The global catalogs are kept as stored — the segments were encoded
    /// and verified against them — so a feature that only ever appeared in
    /// a damaged shard still names a (now empty) column in the views.
    pub fn into_snapshot(self) -> Snapshot {
        let PartialSnapshot {
            mut manifest,
            healthy,
            ..
        } = self;
        let keep: std::collections::BTreeSet<usize> =
            healthy.iter().map(|(index, _)| *index).collect();
        manifest.shards = manifest
            .shards
            .into_iter()
            .enumerate()
            .filter(|(index, _)| keep.contains(index))
            .map(|(_, entry)| entry)
            .collect();
        Snapshot {
            manifest,
            shards: healthy.into_iter().map(|(_, shard)| shard).collect(),
        }
    }
}

/// Lenient [`open`]: verifies every shard independently instead of failing
/// on the first bad one, renames damaged segment files aside
/// (`quarantine-<original name>`, never deleted) and reports them in a
/// [`PartialSnapshot`] next to the healthy shards.
///
/// The manifest itself must still load cleanly — a store whose *manifest*
/// is unreadable, corrupt or version-skewed has nothing to salvage shards
/// against, and the error says so; the recovery path for that case remains
/// a full re-ingest.
pub fn open_salvage(dir: &Path) -> Result<PartialSnapshot> {
    let retries = AtomicU64::new(0);
    let manifest = SnapshotManifest::load_with_retries(dir, &retries)?;
    let all: Vec<usize> = (0..manifest.shards.len()).collect();
    let loaded = scan(dir, &manifest, &all, ScanDepth::Decode, &retries);

    let mut healthy = Vec::with_capacity(loaded.len());
    let mut quarantined = Vec::new();
    for (index, result) in loaded.into_iter().enumerate() {
        let entry = &manifest.shards[index];
        match result {
            Ok(shard) => healthy.extend(shard.map(|shard| (index, shard))),
            Err(error) => {
                let from = dir.join(&entry.file);
                let quarantine_name = format!("quarantine-{}", entry.file);
                let to = dir.join(&quarantine_name);
                // Best-effort: the damage report stands even if the rename
                // fails (e.g. the file is simply missing).
                let quarantined_as = if from.exists() {
                    rename_file(&from, &to, "snapshot.segment.quarantine", &retries)
                        .ok()
                        .map(|()| quarantine_name)
                } else {
                    None
                };
                quarantined.push(ShardDamage {
                    index,
                    file: entry.file.clone(),
                    quarantined_as,
                    error,
                    source_fingerprint: entry.source_fingerprint,
                    rows: entry.rows,
                });
            }
        }
    }
    Ok(PartialSnapshot {
        manifest,
        healthy,
        quarantined,
        io_retries: retries.load(Ordering::Relaxed),
    })
}

/// One shard's health as reported by [`verify`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHealth {
    /// The shard's position in the manifest.
    pub index: usize,
    /// The segment file the manifest references.
    pub file: String,
    /// Rows the manifest records for the shard.
    pub rows: u64,
    /// `None` when the segment's bytes fingerprint-match the manifest;
    /// otherwise why they do not.
    pub error: Option<CoreError>,
}

impl ShardHealth {
    /// Whether the shard verified clean.
    pub fn is_healthy(&self) -> bool {
        self.error.is_none()
    }
}

/// Read-only health check: fingerprint-verifies every segment file against
/// the manifest without decoding anything or building views, and without
/// touching the store (no quarantine, no rewrite).  Returns one
/// [`ShardHealth`] per shard in manifest order; fails outright only when
/// the manifest itself is unusable.
pub fn verify(dir: &Path) -> Result<Vec<ShardHealth>> {
    let retries = AtomicU64::new(0);
    let manifest = SnapshotManifest::load_with_retries(dir, &retries)?;
    let all: Vec<usize> = (0..manifest.shards.len()).collect();
    let checked = scan(dir, &manifest, &all, ScanDepth::Fingerprint, &retries);
    Ok(checked
        .into_iter()
        .zip(&manifest.shards)
        .enumerate()
        .map(|(index, (result, entry))| ShardHealth {
            index,
            file: entry.file.clone(),
            rows: entry.rows,
            error: result.err(),
        })
        .collect())
}
