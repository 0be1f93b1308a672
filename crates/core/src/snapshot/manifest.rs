//! The manifest tying a snapshot directory together.

use super::{read_file_to_string, rename_file, write_file, SNAPSHOT_VERSION};
use crate::error::{CoreError, Result};
use crate::features::FeatureCatalog;
use crate::record::ExecutionKind;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::atomic::AtomicU64;

/// File name of the manifest inside a snapshot directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// One shard of the snapshot, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardEntry {
    /// Segment file name, relative to the snapshot directory.
    pub file: String,
    /// Records stored in the shard (jobs + tasks).
    pub rows: u64,
    /// FxHash-64 over the segment file's bytes; verified on every open.
    pub fingerprint: u64,
    /// Fingerprint of the shard's *source* (e.g. raw bundle bytes), set by
    /// ingest so a later incremental [`sync`](super::sync) can skip unchanged shards
    /// without reading anything.  `None` when the snapshot was persisted
    /// from an in-memory log.
    pub source_fingerprint: Option<u64>,
    /// Total bytes of the segment file on disk.
    pub bytes: u64,
    /// Bytes of the compressed job columns block (length prefix included).
    pub job_bytes: u64,
    /// Bytes of the compressed task columns block (length prefix included).
    pub task_bytes: u64,
    /// Bytes an equivalent v1 segment file (uncompressed fixed-width cells,
    /// full per-record feature maps) would occupy — the denominator of
    /// [`SnapshotUsage::compression_ratio`], computed arithmetically at
    /// encode time, never written.
    pub raw_bytes: u64,
    /// The shard's own job-feature catalog (what
    /// [`FeatureCatalog::infer`] saw in this shard alone); merged in
    /// manifest order to rebuild the global catalog.
    pub job_catalog: FeatureCatalog,
    /// The shard's own task-feature catalog.
    pub task_catalog: FeatureCatalog,
}

/// The manifest tying a snapshot directory together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotManifest {
    /// Snapshot format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Generation of the source log at persist time (provenance only; a
    /// reopened log starts counting anew, like the JSON path).
    pub generation: u64,
    /// The merged global job catalog every job segment is encoded against.
    pub job_catalog: FeatureCatalog,
    /// The merged global task catalog every task segment is encoded against.
    pub task_catalog: FeatureCatalog,
    /// The shards, in ingest order.  **This order is authoritative**: open
    /// assembles records, catalogs and column segments in manifest order,
    /// whatever order the files come off the directory in.
    pub shards: Vec<ShardEntry>,
}

/// On-disk byte accounting of a snapshot, summed over its shards
/// ([`SnapshotManifest::usage`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotUsage {
    /// Total segment-file bytes (manifest excluded).
    pub total_bytes: u64,
    /// Bytes of the records blocks (ids, parents, exception features) plus
    /// the fixed per-file header.
    pub records_bytes: u64,
    /// Bytes of the compressed job columns blocks.
    pub job_bytes: u64,
    /// Bytes of the compressed task columns blocks.
    pub task_bytes: u64,
    /// Bytes the same data would occupy in the v1 raw fixed-width format.
    pub raw_bytes: u64,
}

impl SnapshotUsage {
    /// How many raw fixed-width bytes each stored byte stands for
    /// (`raw_bytes / total_bytes`; 1.0 for an empty store).
    pub fn compression_ratio(&self) -> f64 {
        if self.total_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.total_bytes as f64
        }
    }
}

/// Probe used to read the version field before the full manifest parse, so
/// a future-format manifest reports version skew instead of a parse error.
#[derive(Debug, Serialize, Deserialize)]
struct ManifestVersionProbe {
    version: u64,
}

impl SnapshotManifest {
    /// The global catalog for one execution kind.
    pub fn catalog(&self, kind: ExecutionKind) -> &FeatureCatalog {
        match kind {
            ExecutionKind::Job => &self.job_catalog,
            ExecutionKind::Task => &self.task_catalog,
        }
    }

    /// Total records across all shards.
    pub fn rows(&self) -> usize {
        self.shards.iter().map(|s| s.rows as usize).sum()
    }

    /// On-disk byte accounting summed across all shards.
    pub fn usage(&self) -> SnapshotUsage {
        let mut usage = SnapshotUsage::default();
        for shard in &self.shards {
            usage.total_bytes += shard.bytes;
            usage.job_bytes += shard.job_bytes;
            usage.task_bytes += shard.task_bytes;
            usage.raw_bytes += shard.raw_bytes;
        }
        usage.records_bytes = usage
            .total_bytes
            .saturating_sub(usage.job_bytes + usage.task_bytes);
        usage
    }

    /// Loads and validates the manifest of a snapshot directory.
    pub fn load(dir: &Path) -> Result<SnapshotManifest> {
        Self::load_with_retries(dir, &AtomicU64::new(0))
    }

    /// [`SnapshotManifest::load`] with the caller's retry counter threaded
    /// through the transient-IO retry wrapper.
    pub(super) fn load_with_retries(dir: &Path, retries: &AtomicU64) -> Result<SnapshotManifest> {
        let path = dir.join(MANIFEST_FILE);
        let text = read_file_to_string(&path, "snapshot.manifest.read", retries)?;
        let corrupt = |message: String| CoreError::SnapshotCorrupt {
            path: path.display().to_string(),
            message,
        };
        let probe: ManifestVersionProbe = serde_json::from_str(&text)
            .map_err(|e| corrupt(format!("manifest is not valid JSON: {e}")))?;
        if probe.version != u64::from(SNAPSHOT_VERSION) {
            return Err(CoreError::SnapshotVersionSkew {
                found: probe.version.min(u64::from(u32::MAX)) as u32,
                supported: SNAPSHOT_VERSION,
            });
        }
        let manifest: SnapshotManifest = serde_json::from_str(&text)
            .map_err(|e| corrupt(format!("manifest does not parse: {e}")))?;
        if manifest.shards.is_empty() {
            return Err(corrupt("manifest lists no shards".to_string()));
        }
        for entry in &manifest.shards {
            // Segment files live flat inside the snapshot directory; a
            // manifest must not be able to point reads elsewhere.
            if entry.file.contains('/') || entry.file.contains('\\') || entry.file.contains("..") {
                return Err(corrupt(format!(
                    "segment file name '{}' escapes the snapshot directory",
                    entry.file
                )));
            }
        }
        Ok(manifest)
    }

    /// Writes the manifest into `dir` (write-then-rename, so a crash never
    /// leaves a half-written manifest behind).
    pub(super) fn save(&self, dir: &Path, retries: &AtomicU64) -> Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| CoreError::Serialization(e.to_string()))?;
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        let path = dir.join(MANIFEST_FILE);
        write_file(&tmp, "snapshot.manifest.write", retries, json.as_bytes())?;
        rename_file(&tmp, &path, "snapshot.manifest.rename", retries)?;
        Ok(())
    }
}
