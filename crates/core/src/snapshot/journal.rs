//! The append journal: write-ahead durability for the live tail.

use super::segment::{decode_value, encode_value};
use super::{
    create_dir, io_error, read_file, rename_file, with_io_retry, write_file, SNAPSHOT_VERSION,
};
use crate::error::Result;
use crate::record::{ExecutionKind, ExecutionRecord};
use mlcore::{ByteReader, ByteWriter, CodecError};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File name of the append journal inside a snapshot directory.
pub const JOURNAL_FILE: &str = "journal.bin";

/// Scratch name the next journal generation is staged under during
/// checkpoint rotation ([`Journal::begin_rotation`]).
pub(super) const JOURNAL_TMP_FILE: &str = "journal.bin.tmp";

/// Magic prefix of the journal file.
const JOURNAL_MAGIC: &[u8; 8] = b"PXSNPJL\0";

/// Bytes of the journal header: magic plus format version.
pub(super) const JOURNAL_HEADER_BYTES: u64 = (8 + 4) as u64;

/// When journal writes are flushed to stable storage — the knob that trades
/// append latency for the size of the crash window.
///
/// An append is reported **durable** exactly when its frame was fsynced
/// before the acknowledgement: every append under [`FsyncPolicy::Always`],
/// every n-th under [`FsyncPolicy::EveryN`], and none under
/// [`FsyncPolicy::OnCheckpoint`] (those become durable at the next
/// checkpoint or explicit journal sync).  Even non-durable frames are
/// *written*, so only an OS-level crash — not a process crash — can lose
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended frame; every acknowledged append is
    /// durable.
    Always,
    /// fsync once per `n` appended frames; at most `n - 1` acknowledged
    /// appends ride in the OS page cache.
    EveryN(u64),
    /// fsync only at checkpoint rotation (and explicit journal syncs); a
    /// process crash loses nothing, an OS crash can lose the un-checkpointed
    /// tail.
    OnCheckpoint,
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every:{n}"),
            FsyncPolicy::OnCheckpoint => write!(f, "oncheckpoint"),
        }
    }
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    /// Parses `always`, `oncheckpoint` (also `checkpoint`), or `every:<n>`
    /// (also `every=<n>` / `every<n>`, n ≥ 1).
    fn from_str(text: &str) -> std::result::Result<FsyncPolicy, String> {
        let lower = text.trim().to_ascii_lowercase();
        match lower.as_str() {
            "always" => return Ok(FsyncPolicy::Always),
            "oncheckpoint" | "on-checkpoint" | "checkpoint" => {
                return Ok(FsyncPolicy::OnCheckpoint)
            }
            _ => {}
        }
        if let Some(rest) = lower.strip_prefix("every") {
            let digits = rest.trim_start_matches([':', '=']);
            if let Ok(n) = digits.parse::<u64>() {
                if n >= 1 {
                    return Ok(FsyncPolicy::EveryN(n));
                }
            }
        }
        Err(format!(
            "unknown fsync policy '{text}' (expected always, every:<n> or oncheckpoint)"
        ))
    }
}

/// Cumulative journal counters, surfaced by the status probe and
/// `snapshot verify`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Bytes of the current journal file (header included).
    pub bytes: u64,
    /// Frames written since the journal was enabled (rotations included).
    pub frames_appended: u64,
    /// Frames replayed into the log when the store was opened.
    pub frames_replayed: u64,
    /// Torn- or corrupt-tail truncations performed on open (0 or 1).
    pub frames_truncated: u64,
    /// fsyncs issued since the journal was enabled.
    pub fsyncs: u64,
    /// Manifest generation of the last checkpoint rotation (0 before the
    /// first).
    pub last_rotation_generation: u64,
}

/// One acknowledged append batch recovered from the journal.
#[derive(Debug, Clone)]
pub struct JournalBatch {
    /// Rows the log held when the batch was acknowledged — the replay
    /// position: a frame applies only when the recovering log has exactly
    /// this many rows, which makes replay idempotent across checkpoint
    /// rotation crash windows.
    pub start_rows: u64,
    /// The acknowledged records, in append order.
    pub records: Vec<ExecutionRecord>,
}

/// What [`read_journal`] recovered from a journal file.
#[derive(Debug, Clone, Default)]
pub struct JournalReplay {
    /// The decoded frames, in journal order.
    pub batches: Vec<JournalBatch>,
    /// Valid journal bytes (header included) after tail truncation.
    pub bytes: u64,
    /// 1 when a torn or corrupt tail was cut off, else 0.
    pub frames_truncated: u64,
    /// Transient-IO retries absorbed while reading.
    pub io_retries: u64,
}

/// Read-only journal health, as audited by [`verify_journal`].
#[derive(Debug, Clone, Default)]
pub struct JournalHealth {
    /// Whether a journal file exists in the directory.
    pub present: bool,
    /// Total bytes of the journal file on disk.
    pub bytes: u64,
    /// Frames whose checksums verified clean.
    pub frames: u64,
    /// Records across the clean frames.
    pub records: u64,
    /// Why the tail (or the whole file) failed verification, when it did.
    pub damage: Option<String>,
}

impl JournalHealth {
    /// `true` when the journal is absent or verified clean end to end.
    pub fn is_healthy(&self) -> bool {
        self.damage.is_none()
    }
}

fn journal_header_bytes() -> Vec<u8> {
    let mut writer = ByteWriter::with_capacity(JOURNAL_HEADER_BYTES as usize);
    writer.put_raw(JOURNAL_MAGIC);
    writer.put_u32(SNAPSHOT_VERSION);
    writer.into_bytes()
}

/// Journal records carry the **full** feature map — unlike
/// [`encode_record_slim`], there are no column segments to rebuild from on
/// replay.
fn encode_journal_record(writer: &mut ByteWriter, record: &ExecutionRecord) {
    writer.put_str(&record.id);
    writer.put_u8(match record.kind {
        ExecutionKind::Job => 0,
        ExecutionKind::Task => 1,
    });
    match &record.parent_job {
        None => writer.put_u8(0),
        Some(parent) => {
            writer.put_u8(1);
            writer.put_str(parent);
        }
    }
    writer.put_u32(record.features.len() as u32);
    for (name, value) in &record.features {
        writer.put_str(name);
        encode_value(writer, value);
    }
}

fn decode_journal_record(
    reader: &mut ByteReader<'_>,
) -> std::result::Result<ExecutionRecord, CodecError> {
    let id = reader.get_str()?.to_string();
    let kind = match reader.get_u8()? {
        0 => ExecutionKind::Job,
        1 => ExecutionKind::Task,
        tag => {
            return Err(CodecError::Invalid(format!(
                "unknown record kind tag {tag} on '{id}'"
            )))
        }
    };
    let parent_job = match reader.get_u8()? {
        0 => None,
        1 => Some(reader.get_str()?.to_string()),
        tag => {
            return Err(CodecError::Invalid(format!(
                "unknown parent tag {tag} on '{id}'"
            )))
        }
    };
    let count = reader.get_u32()? as usize;
    let mut features = BTreeMap::new();
    for _ in 0..count {
        let name = reader.get_str()?.to_string();
        let value = decode_value(reader, 0)?;
        features.insert(name, value);
    }
    Ok(ExecutionRecord {
        id,
        kind,
        parent_job,
        features,
    })
}

/// Encodes one append batch as a self-verifying journal frame.
fn encode_journal_frame(start_rows: u64, records: &[ExecutionRecord]) -> Vec<u8> {
    let mut writer = ByteWriter::with_capacity(records.len() * 96 + 32);
    writer.put_checksummed_block(|w| {
        w.put_u64(start_rows);
        w.put_u64(records.len() as u64);
        for record in records {
            encode_journal_record(w, record);
        }
    });
    writer.into_bytes()
}

fn decode_journal_frame(
    reader: &mut ByteReader<'_>,
) -> std::result::Result<JournalBatch, CodecError> {
    let mut block = reader.get_checksummed_block()?;
    let start_rows = block.get_u64()?;
    let count = block.get_count()?;
    let mut records = Vec::with_capacity(count.min(block.remaining()));
    for _ in 0..count {
        records.push(decode_journal_record(&mut block)?);
    }
    if !block.is_exhausted() {
        return Err(CodecError::Invalid(
            "trailing bytes inside a journal frame".to_string(),
        ));
    }
    Ok(JournalBatch {
        start_rows,
        records,
    })
}

/// One pass over a journal file's bytes: decodes clean frames in order and
/// reports where validity ends.  Never fails — damage is data, not an
/// error.
struct JournalScan {
    batches: Vec<JournalBatch>,
    /// Bytes (from the start of the file) covered by the header plus every
    /// clean frame; anything beyond is torn or corrupt.
    valid_bytes: u64,
    damage: Option<String>,
}

fn scan_journal(bytes: &[u8]) -> JournalScan {
    let mut scan = JournalScan {
        batches: Vec::new(),
        valid_bytes: 0,
        damage: None,
    };
    if bytes.is_empty() {
        // An empty file is a journal that never got its header — nothing
        // was ever acknowledged against it, so it is vacuously clean.
        return scan;
    }
    let mut reader = ByteReader::new(bytes);
    let header_ok = matches!(reader.take(JOURNAL_MAGIC.len()), Ok(magic) if magic == JOURNAL_MAGIC)
        && matches!(reader.get_u32(), Ok(version) if version == SNAPSHOT_VERSION);
    if !header_ok {
        scan.damage = Some("not a journal file (bad magic or version)".to_string());
        return scan;
    }
    scan.valid_bytes = JOURNAL_HEADER_BYTES;
    while !reader.is_exhausted() {
        match decode_journal_frame(&mut reader) {
            Ok(batch) => {
                scan.batches.push(batch);
                scan.valid_bytes = (bytes.len() - reader.remaining()) as u64;
            }
            Err(err) => {
                scan.damage = Some(format!(
                    "frame {} at byte {}: {err}",
                    scan.batches.len(),
                    scan.valid_bytes
                ));
                break;
            }
        }
    }
    scan
}

/// Reads the journal in `dir` for replay: decodes every clean frame and
/// **truncates the file at the last valid frame** when the tail is torn or
/// corrupt (a crash mid-write is the expected way for a journal to end —
/// it is recovery, not an error).  A missing journal replays nothing.
///
/// The caller applies the batches positionally: a batch belongs at
/// [`JournalBatch::start_rows`], so frames already covered by the manifest
/// are skipped and replay stays idempotent.
pub fn read_journal(dir: &Path) -> Result<JournalReplay> {
    let path = dir.join(JOURNAL_FILE);
    if !path.exists() {
        return Ok(JournalReplay::default());
    }
    let retries = AtomicU64::new(0);
    let bytes = read_file(&path, "journal.replay", &retries)?;
    let scan = scan_journal(&bytes);
    let mut frames_truncated = 0;
    if scan.valid_bytes < bytes.len() as u64 {
        frames_truncated = 1;
        let valid = scan.valid_bytes;
        with_io_retry(&retries, || {
            let file = std::fs::OpenOptions::new().write(true).open(&path)?;
            file.set_len(valid)
        })
        .map_err(|e| io_error(&path, e))?;
    }
    Ok(JournalReplay {
        batches: scan.batches,
        bytes: scan.valid_bytes,
        frames_truncated,
        io_retries: retries.load(Ordering::Relaxed),
    })
}

/// Read-only journal audit for `snapshot verify`: decodes every frame
/// checksum without truncating or touching the file.  A missing journal is
/// healthy (the store simply has no live tail).
pub fn verify_journal(dir: &Path) -> Result<JournalHealth> {
    let path = dir.join(JOURNAL_FILE);
    if !path.exists() {
        return Ok(JournalHealth::default());
    }
    let retries = AtomicU64::new(0);
    let bytes = read_file(&path, "journal.replay", &retries)?;
    let scan = scan_journal(&bytes);
    Ok(JournalHealth {
        present: true,
        bytes: bytes.len() as u64,
        frames: scan.batches.len() as u64,
        records: scan.batches.iter().map(|b| b.records.len() as u64).sum(),
        damage: scan.damage,
    })
}

/// The write side of the append journal: an open handle positioned after
/// the last valid frame, the fsync policy, and the cumulative counters.
///
/// Lifecycle: [`Journal::create`] (fresh store or no replay — whatever was
/// in the file is discarded) or [`Journal::resume`] (after
/// [`read_journal`]); [`Journal::append_batch`] per acknowledged append;
/// [`Journal::begin_rotation`] **before** the checkpoint's manifest commit
/// and [`Journal::commit_rotation`] after it — the same crash-ordering
/// discipline as content-addressed segments: at every instant either the
/// old journal covers the un-checkpointed tail or the manifest does.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    path: PathBuf,
    file: std::fs::File,
    policy: FsyncPolicy,
    retries: AtomicU64,
    bytes: u64,
    frames_appended: u64,
    frames_replayed: u64,
    frames_truncated: u64,
    fsyncs: u64,
    unsynced_frames: u64,
    last_rotation_generation: u64,
    /// Set when a failed append could not be scrubbed off the file: an
    /// unacknowledged frame sits at the acked cursor, so any further
    /// frame this journal wrote could be shadowed by it on replay.  The
    /// owner must stop journaling ([`Journal::is_broken`]).
    broken: bool,
}

impl Journal {
    /// Creates (or resets) the journal in `dir` with a fresh header.  Use
    /// this when the in-memory log was *not* recovered from this journal —
    /// stale frames from an unrelated history must never replay.
    pub fn create(dir: &Path, policy: FsyncPolicy) -> Result<Journal> {
        Journal::open_impl(dir, policy, true, 0, 0)
    }

    /// Opens the journal after a [`read_journal`] pass, positioned after
    /// the last valid frame, seeding the replay counters with how many
    /// frames the caller actually applied.
    pub fn resume(
        dir: &Path,
        policy: FsyncPolicy,
        replay: &JournalReplay,
        frames_replayed: u64,
    ) -> Result<Journal> {
        let journal =
            Journal::open_impl(dir, policy, false, frames_replayed, replay.frames_truncated)?;
        journal
            .retries
            .fetch_add(replay.io_retries, Ordering::Relaxed);
        Ok(journal)
    }

    fn open_impl(
        dir: &Path,
        policy: FsyncPolicy,
        reset: bool,
        frames_replayed: u64,
        frames_truncated: u64,
    ) -> Result<Journal> {
        let retries = AtomicU64::new(0);
        create_dir(dir, &retries)?;
        let path = dir.join(JOURNAL_FILE);
        let file = with_io_retry(&retries, || {
            if let Some(failure) = mlcore::failpoints::trigger("journal.write") {
                return Err(failure.into_io_error("journal.write"));
            }
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)
        })
        .map_err(|e| io_error(&path, e))?;
        let len = file.metadata().map_err(|e| io_error(&path, e))?.len();
        let mut journal = Journal {
            dir: dir.to_path_buf(),
            path,
            file,
            policy,
            retries,
            bytes: len,
            frames_appended: 0,
            frames_replayed,
            frames_truncated,
            fsyncs: 0,
            unsynced_frames: 0,
            last_rotation_generation: 0,
            broken: false,
        };
        if reset || len < JOURNAL_HEADER_BYTES {
            journal.write_at(0, &journal_header_bytes())?;
            let header = JOURNAL_HEADER_BYTES;
            let file = &mut journal.file;
            with_io_retry(&journal.retries, || file.set_len(header))
                .map_err(|e| io_error(&journal.path, e))?;
            journal.bytes = header;
        }
        Ok(journal)
    }

    /// The snapshot directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The journal's fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Cumulative counters for the status probe.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            bytes: self.bytes,
            frames_appended: self.frames_appended,
            frames_replayed: self.frames_replayed,
            frames_truncated: self.frames_truncated,
            fsyncs: self.fsyncs,
            last_rotation_generation: self.last_rotation_generation,
        }
    }

    /// Transient-IO retries absorbed by journal operations so far.
    pub fn io_retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Writes `bytes` at `offset`, seeking first so a retried attempt
    /// never duplicates a partial write.
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> Result<()> {
        let file = &mut self.file;
        with_io_retry(&self.retries, || {
            if let Some(failure) = mlcore::failpoints::trigger("journal.write") {
                return Err(failure.into_io_error("journal.write"));
            }
            file.seek(SeekFrom::Start(offset))?;
            file.write_all(bytes)
        })
        .map_err(|e| io_error(&self.path, e))
    }

    fn fsync_now(&mut self) -> Result<()> {
        let file = &mut self.file;
        with_io_retry(&self.retries, || {
            if let Some(failure) = mlcore::failpoints::trigger("journal.fsync") {
                return Err(failure.into_io_error("journal.fsync"));
            }
            file.sync_data()
        })
        .map_err(|e| io_error(&self.path, e))?;
        self.fsyncs += 1;
        self.unsynced_frames = 0;
        Ok(())
    }

    /// Appends one acknowledged batch as a frame and applies the fsync
    /// policy.  Returns whether the batch is **durable** (fsynced before
    /// the acknowledgement).  On error nothing must be acknowledged — the
    /// caller aborts the in-memory append, and the frame is scrubbed back
    /// off the file so it can never replay in place of a *later* acked
    /// frame at the same position (if even the scrub fails the journal
    /// reports [`Journal::is_broken`] and must be deactivated).
    pub fn append_batch(&mut self, start_rows: u64, records: &[ExecutionRecord]) -> Result<bool> {
        if self.broken {
            return Err(io_error(
                &self.path,
                std::io::Error::other(
                    "journal is broken: a failed append left an unacknowledged frame \
                     that could not be scrubbed",
                ),
            ));
        }
        let frame = encode_journal_frame(start_rows, records);
        let pre_bytes = self.bytes;
        let pre_appended = self.frames_appended;
        let pre_unsynced = self.unsynced_frames;
        let result = self.append_frame(&frame);
        if result.is_err() {
            // The frame (whole or torn) may be on disk but was never
            // acknowledged.  Truncate back to the pre-frame offset and
            // restore the counters: the journal stays active and the next
            // acked frame lands at the same position this one vacated.
            // If the truncate itself fails, an unacknowledged frame is
            // stuck at the acked cursor and would shadow whatever acked
            // frame is written there next — mark the journal broken so
            // the owner stops journaling instead of desyncing replay.
            self.bytes = pre_bytes;
            self.frames_appended = pre_appended;
            self.unsynced_frames = pre_unsynced;
            let file = &mut self.file;
            if with_io_retry(&self.retries, || file.set_len(pre_bytes)).is_err() {
                self.broken = true;
            }
        }
        result
    }

    /// Whether a failed append left an unacknowledged frame on disk that
    /// could not be scrubbed — the journal must not be used for further
    /// appends (see [`Journal::append_batch`]).
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    fn append_frame(&mut self, frame: &[u8]) -> Result<bool> {
        self.write_at(self.bytes, frame)?;
        self.bytes += frame.len() as u64;
        self.frames_appended += 1;
        self.unsynced_frames += 1;
        match self.policy {
            FsyncPolicy::Always => {
                self.fsync_now()?;
                Ok(true)
            }
            FsyncPolicy::EveryN(n) => {
                if self.unsynced_frames >= n.max(1) {
                    self.fsync_now()?;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
            FsyncPolicy::OnCheckpoint => Ok(false),
        }
    }

    /// Flushes any unsynced frames to stable storage (no-op when none are
    /// pending).
    pub fn sync(&mut self) -> Result<()> {
        if self.unsynced_frames == 0 {
            return Ok(());
        }
        self.fsync_now()
    }

    /// Stage the next journal generation (`journal.bin.tmp`, fresh header)
    /// **before** the checkpoint commits its manifest, so a crash in
    /// between still finds the old journal covering the old manifest's
    /// tail.
    pub fn begin_rotation(&mut self) -> Result<()> {
        let tmp = self.dir.join(JOURNAL_TMP_FILE);
        write_file(
            &tmp,
            "journal.write",
            &self.retries,
            &journal_header_bytes(),
        )
    }

    /// Completes a rotation after the manifest committed: the staged
    /// journal replaces the old one and the handle moves over to it.
    /// `generation` is the manifest generation the checkpoint wrote.
    pub fn commit_rotation(&mut self, generation: u64) -> Result<()> {
        let tmp = self.dir.join(JOURNAL_TMP_FILE);
        rename_file(&tmp, &self.path, "journal.write", &self.retries)?;
        let path = self.path.clone();
        let file = with_io_retry(&self.retries, || {
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
        })
        .map_err(|e| io_error(&path, e))?;
        self.file = file;
        self.bytes = JOURNAL_HEADER_BYTES;
        self.unsynced_frames = 0;
        self.last_rotation_generation = generation;
        // The swap discarded the old file wholesale, and with it any
        // unacknowledged frame a failed scrub left behind.
        self.broken = false;
        Ok(())
    }

    /// Abandons a staged rotation (the checkpoint between
    /// [`Journal::begin_rotation`] and [`Journal::commit_rotation`]
    /// failed): best-effort removal of the scratch file; the old journal
    /// stays authoritative.
    pub fn abort_rotation(&mut self) {
        let _ = std::fs::remove_file(self.dir.join(JOURNAL_TMP_FILE));
    }
}

/// Best-effort removal of the journal once a manifest commit has made its
/// frames redundant: every committed write either re-described the world
/// (full persist — replaying old frames would splice unrelated history) or
/// absorbed the journaled tail into a segment.  A journaling service
/// rotates right after ([`Journal::commit_rotation`] renames the staged
/// `journal.bin.tmp` into place — which is why the scratch file is left
/// alone here).
pub(super) fn remove_stale_journal(dir: &Path) {
    let _ = std::fs::remove_file(dir.join(JOURNAL_FILE));
}
