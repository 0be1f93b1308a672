//! Persistent segmented snapshot store for execution logs.
//!
//! A PerfXplain deployment ingests logs rarely and queries them constantly,
//! but until this module existed every cold start re-parsed the full JSON
//! log and re-encoded every columnar segment from scratch.  The snapshot
//! store turns that around: the *encoded* form — per-shard binary column
//! segments plus the records that produced them — is what lives on disk,
//! and a cold start reads it straight back into the sharded pipeline.
//!
//! A snapshot directory holds one **segment file** per shard
//! (length-prefixed binary, format v2: the shard's records slimmed down to
//! id/kind/parent plus *exception* features, and its compressed job and
//! task column segments with local dictionaries, via
//! [`mlcore::ColumnStore::encode_binary`]) and a JSON **manifest** tying
//! the shards together: per-shard content fingerprints (FxHash, reusing
//! [`mlcore::hash`]), per-shard feature catalogs, per-shard byte accounting
//! ([`SnapshotManifest::usage`]), the merged global catalogs and the source
//! log's generation.  Feature values are **not** written twice: a record's
//! feature map is rebuilt on open from the column segments, and only the
//! cells the columns cannot reproduce bit-exactly (a `Null` value, a
//! canonical-text collision) ride along as explicit exceptions.  An
//! optional `journal.bin` ([`Journal`]) holds the acknowledged appends
//! since the last commit.
//!
//! # One scan, one commit
//!
//! Every read of segment files goes through **one shard scan**
//! (`scan.rs`), which reads a set of manifest entries on one
//! [`crate::shard::map_chunks`] fan-out and returns a result per shard, in
//! manifest order.  It reads at one of two depths:
//!
//! * **fingerprint** — the file's bytes must hash to the manifest's
//!   content fingerprint; nothing is decoded.  [`verify`] (read-only) and
//!   the commit's check of the shards it keeps while the schema is stable
//!   read at this depth.
//! * **decode** — the fingerprint check, then a full decode checked against
//!   the shard's manifest entry (row count) and the global catalogs
//!   (schema).  [`open`] fails on the lowest-index damaged shard and then
//!   checks that the global catalogs are the merge of the per-shard ones;
//!   [`open_salvage`] quarantines each damaged shard instead; the commit
//!   reloads the records of the shards it keeps when the schema moved.
//!
//! A damaged shard therefore fails the same way, with the same typed error,
//! whichever entry point reads it.
//!
//! Every write goes through **one commit** (`commit.rs`), which takes the
//! old manifest (if any), one [`ShardInput`] per shard and the generation
//! to record.  [`persist`] and [`persist_shards`] commit all-fresh shards
//! over whatever was there; [`sync`] (incremental re-ingest: the caller
//! fingerprints each shard's *source*, e.g. the raw bundle bytes) and
//! [`sync_append`] (the live-tail checkpoint) keep the shards whose source
//! did not change.  The commit checks every reuse claim against the old
//! manifest, merges the catalogs in shard order, scans the kept shards,
//! encodes the fresh ones, writes content-addressed segment files,
//! atomically replaces the manifest, and sweeps superseded segments and the
//! now-redundant journal.  Kept shards are never decoded or re-encoded
//! unless the merged catalog changed (a new feature, or a feature's kind
//! flipped): then every segment's schema is stale and all shards re-encode
//! from their on-disk records, still without touching the original source.
//!
//! [`Snapshot::into_views`] consumes an opened snapshot into a
//! [`SnapshotViews`] — the reassembled
//! [`ExecutionLog`](crate::record::ExecutionLog) plus both
//! [`ColumnarLog`](crate::columnar::ColumnarLog) views — with the decoded
//! `Arc`-backed column buffers **moved, not copied**, into the views
//! (single-segment snapshots adopt them outright).  The views are
//! **bit-identical** to
//! [`ColumnarLog::build_sharded`](crate::columnar::ColumnarLog::build_sharded)
//! over the original log, and the log equals
//! [`ExecutionLog::from_shards`](crate::record::ExecutionLog::from_shards)
//! over the stored shard catalogs, **in manifest order** regardless of how
//! the files are laid out on disk.
//!
//! # Recovery
//!
//! Corruption — truncated files, flipped bytes, edited manifests, version
//! skew — surfaces as typed [`CoreError`]s ([`CoreError::SnapshotCorrupt`],
//! [`CoreError::SnapshotVersionSkew`], [`CoreError::SnapshotIo`]), never a
//! panic.  Recovery is **layered, cheapest first**:
//!
//! 1. **Transient-IO retry.** Every file operation of the store classifies
//!    its `io::ErrorKind`: `Interrupted` / `WouldBlock` / `TimedOut` retry
//!    in place with bounded exponential backoff and deterministic jitter
//!    (`NotFound`, `InvalidData` and every other deterministic outcome
//!    never retry), and the retry count surfaces in
//!    [`SyncReport::io_retries`] so operators can see a flaky disk.
//! 2. **Salvage, then targeted re-encode.** [`open_salvage`] is the
//!    lenient [`open`]: the same scan verifies every shard
//!    *independently*, damaged segment files are renamed aside
//!    (`quarantine-…`, never deleted — forensics survive), and it returns a
//!    [`PartialSnapshot`] of the healthy shards plus a [`ShardDamage`]
//!    report.  [`sync`] with the damaged shards as [`ShardInput::Fresh`]
//!    and the rest [`ShardInput::Unchanged`] then re-encodes *only* what
//!    was damaged — one flipped byte costs one shard re-encode, not a
//!    full re-ingest.  [`verify`] is the read-only health check behind
//!    `perfxplain snapshot verify`.
//! 3. **Full re-ingest** ([`persist_shards`] overwrites whatever was
//!    there) remains the last resort, needed only when the manifest
//!    itself is unreadable or version-skewed, or the source no longer
//!    matches the stored shard layout.
//!
//! Every IO site of the store is additionally a named
//! [`mlcore::failpoints`] site (`snapshot.manifest.read`,
//! `snapshot.segment.write`, `snapshot.segment.decode`, …), so the chaos
//! suite (`tests/chaos.rs`, `--features failpoints`) can inject faults at
//! any of them and prove the layering above actually holds.
//!
//! # Modules
//!
//! * `mod.rs` — fingerprints, the transient-IO retry and the file helpers
//!   every other module writes and reads through;
//! * `manifest.rs` — [`ShardEntry`], [`SnapshotManifest`] and its
//!   validated load and atomic save;
//! * `segment.rs` — the segment file codec and the decode-side checks;
//! * `scan.rs` — the shard scan and [`open`], [`open_salvage`] and
//!   [`verify`] on top of it;
//! * `commit.rs` — the commit and [`persist`], [`persist_shards`],
//!   [`sync`] and [`sync_append`] on top of it;
//! * `journal.rs` — the write-ahead append journal.

mod commit;
mod journal;
mod manifest;
mod scan;
mod segment;

pub use commit::{persist, persist_shards, sync, sync_append, RecordShard, ShardInput, SyncReport};
pub use journal::{
    read_journal, verify_journal, FsyncPolicy, Journal, JournalBatch, JournalHealth, JournalReplay,
    JournalStats, JOURNAL_FILE,
};
pub use manifest::{ShardEntry, SnapshotManifest, SnapshotUsage, MANIFEST_FILE};
pub use scan::{
    open, open_salvage, verify, PartialSnapshot, ShardDamage, ShardHealth, Snapshot, SnapshotViews,
};
pub use segment::SnapshotShard;

use crate::error::{CoreError, Result};
use mlcore::FxHasher;
use std::hash::Hasher;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the snapshot format this build reads and writes.
///
/// Version 2 compresses column segments (bit-packed dictionary ids,
/// frame-of-reference/delta numerics, presence bitmaps) and slims the
/// records block down to exceptions.  Opening a v1 store reports
/// [`CoreError::SnapshotVersionSkew`] naming a full re-ingest as the
/// recovery path — v1 is not read.
pub const SNAPSHOT_VERSION: u32 = 2;

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// Content fingerprint of a byte slice (deterministic FxHash-64).
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(bytes);
    hasher.finish()
}

/// Fingerprint of a sequence of text parts (e.g. the files of a job log
/// bundle).  Each part's length is mixed in before its bytes, so part
/// boundaries matter: `["ab", "c"]` and `["a", "bc"]` differ.
pub fn fingerprint_texts<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hasher = FxHasher::default();
    for part in parts {
        hasher.write_u64(part.len() as u64);
        hasher.write(part.as_bytes());
    }
    hasher.finish()
}

/// Combines per-item fingerprints (e.g. one per bundle) into one shard
/// fingerprint, order-sensitively.
pub fn combine_fingerprints(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut hasher = FxHasher::default();
    for part in parts {
        hasher.write_u64(part);
    }
    hasher.finish()
}

// ---------------------------------------------------------------------------
// Transient-IO retry
// ---------------------------------------------------------------------------

/// Attempts per file operation (the first try included).
const IO_RETRY_ATTEMPTS: u32 = 4;

/// Backoff before retry `k` is `IO_RETRY_BASE_DELAY_US << k` microseconds
/// plus deterministic jitter of at most half that — worst case well under a
/// millisecond across all attempts, so a genuinely stuck disk still fails
/// fast with its typed error.
const IO_RETRY_BASE_DELAY_US: u64 = 50;

/// IO error kinds worth retrying: OS-level hiccups that routinely succeed
/// on the next attempt.  `NotFound`, `InvalidData`, permission errors and
/// every other deterministic outcome must surface immediately.
fn transient_io(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// Runs `op`, retrying transient IO errors with bounded exponential backoff
/// and deterministic jitter (derived from the running retry count — no
/// clock, no RNG, so chaos runs replay exactly).  Each retry increments the
/// shared counter that [`SyncReport::io_retries`] reports.
fn with_io_retry<T>(
    retries: &AtomicU64,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(value) => return Ok(value),
            Err(err) if transient_io(err.kind()) && attempt + 1 < IO_RETRY_ATTEMPTS => {
                let total = retries.fetch_add(1, Ordering::Relaxed);
                let backoff = IO_RETRY_BASE_DELAY_US << attempt;
                let jitter = total
                    .wrapping_add(u64::from(attempt) + 1)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    >> 32;
                let jitter = jitter % (backoff / 2 + 1);
                std::thread::sleep(std::time::Duration::from_micros(backoff + jitter));
                attempt += 1;
            }
            Err(err) => return Err(err),
        }
    }
}

fn io_error(path: &Path, err: std::io::Error) -> CoreError {
    CoreError::SnapshotIo {
        path: path.display().to_string(),
        message: err.to_string(),
    }
}

/// `std::fs::read` with the failpoint for `site` and transient retry.
fn read_file(path: &Path, site: &str, retries: &AtomicU64) -> Result<Vec<u8>> {
    with_io_retry(retries, || {
        if let Some(failure) = mlcore::failpoints::trigger(site) {
            return Err(failure.into_io_error(site));
        }
        std::fs::read(path)
    })
    .map_err(|e| io_error(path, e))
}

/// `std::fs::read_to_string` with the failpoint for `site` and retry.
fn read_file_to_string(path: &Path, site: &str, retries: &AtomicU64) -> Result<String> {
    with_io_retry(retries, || {
        if let Some(failure) = mlcore::failpoints::trigger(site) {
            return Err(failure.into_io_error(site));
        }
        std::fs::read_to_string(path)
    })
    .map_err(|e| io_error(path, e))
}

/// `std::fs::write` with the failpoint for `site` and retry.
fn write_file(path: &Path, site: &str, retries: &AtomicU64, bytes: &[u8]) -> Result<()> {
    with_io_retry(retries, || {
        if let Some(failure) = mlcore::failpoints::trigger(site) {
            return Err(failure.into_io_error(site));
        }
        std::fs::write(path, bytes)
    })
    .map_err(|e| io_error(path, e))
}

/// `std::fs::rename` with the failpoint for `site` and retry.
fn rename_file(from: &Path, to: &Path, site: &str, retries: &AtomicU64) -> Result<()> {
    with_io_retry(retries, || {
        if let Some(failure) = mlcore::failpoints::trigger(site) {
            return Err(failure.into_io_error(site));
        }
        std::fs::rename(from, to)
    })
    .map_err(|e| io_error(to, e))
}

/// `std::fs::create_dir_all` with its failpoint and retry.
fn create_dir(dir: &Path, retries: &AtomicU64) -> Result<()> {
    with_io_retry(retries, || {
        if let Some(failure) = mlcore::failpoints::trigger("snapshot.dir.create") {
            return Err(failure.into_io_error("snapshot.dir.create"));
        }
        std::fs::create_dir_all(dir)
    })
    .map_err(|e| io_error(dir, e))
}

#[cfg(test)]
mod tests;
