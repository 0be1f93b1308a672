//! Segment files: the binary codecs of one shard's records and column
//! segments, and the decode-side checks against the manifest.

use super::manifest::{ShardEntry, SnapshotManifest};
use super::SNAPSHOT_VERSION;
use crate::columnar::{encode_segment, EncodedSegment};
use crate::features::{FeatureCatalog, FeatureKind};
use crate::record::{ExecutionKind, ExecutionLog, ExecutionRecord};
use mlcore::{AttrValue, ByteReader, ByteWriter, CodecError, ColumnStore, FxHashMap};
use pxql::Value;
use std::collections::BTreeMap;

/// Magic prefix of every segment file.
const SEGMENT_MAGIC: &[u8; 8] = b"PXSNPSG\0";

/// Nesting bound for decoded [`Value::Pair`]s: real pair features nest one
/// level; a corrupt file must not recurse the decoder off the stack.
const MAX_VALUE_DEPTH: u32 = 32;

pub(super) fn encode_value(writer: &mut ByteWriter, value: &Value) {
    match value {
        Value::Null => writer.put_u8(0),
        Value::Bool(b) => {
            writer.put_u8(1);
            writer.put_u8(u8::from(*b));
        }
        Value::Num(v) => {
            writer.put_u8(2);
            writer.put_f64(*v);
        }
        Value::Str(s) => {
            writer.put_u8(3);
            writer.put_str(s);
        }
        Value::Pair(a, b) => {
            writer.put_u8(4);
            encode_value(writer, a);
            encode_value(writer, b);
        }
    }
}

pub(super) fn decode_value(
    reader: &mut ByteReader<'_>,
    depth: u32,
) -> std::result::Result<Value, CodecError> {
    if depth > MAX_VALUE_DEPTH {
        return Err(CodecError::Invalid(format!(
            "value nesting exceeds {MAX_VALUE_DEPTH}"
        )));
    }
    Ok(match reader.get_u8()? {
        0 => Value::Null,
        1 => Value::Bool(reader.get_u8()? != 0),
        2 => Value::Num(reader.get_f64()?),
        3 => Value::Str(reader.get_str()?.to_string()),
        4 => {
            let a = decode_value(reader, depth + 1)?;
            let b = decode_value(reader, depth + 1)?;
            Value::pair(a, b)
        }
        tag => return Err(CodecError::Invalid(format!("unknown value tag {tag}"))),
    })
}

/// `true` iff two values are indistinguishable down to the bit level
/// (numbers compare by `to_bits`, so NaN payloads and `-0.0` count).  This
/// is the test for whether a feature can be *omitted* from the records
/// block and rebuilt from the column segments on open.
pub(super) fn values_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Pair(a1, b1), Value::Pair(a2, b2)) => {
            values_identical(a1, a2) && values_identical(b1, b2)
        }
        _ => false,
    }
}

/// What the column segment at `(row, col)` would rebuild for a feature,
/// compared against the record's actual `value` — without cloning the
/// original.  `None` column (not in the catalog) and `Missing` cells
/// rebuild nothing.
fn column_reconstructs(
    segment: &EncodedSegment,
    row: usize,
    col: Option<usize>,
    value: &Value,
) -> bool {
    let Some(col) = col else { return false };
    match segment.store.value(row, col) {
        AttrValue::Missing => false,
        AttrValue::Num(v) => matches!(value, Value::Num(o) if o.to_bits() == v.to_bits()),
        AttrValue::Nom(id) => values_identical(&segment.originals[col][id as usize], value),
    }
}

/// Writes one record slimmed down to identity plus exceptions: features the
/// column segment reproduces bit-exactly are *not* written — they are
/// rebuilt from the columns on open.  `row` is the record's row within its
/// kind's segment.
fn encode_record_slim(
    writer: &mut ByteWriter,
    record: &ExecutionRecord,
    segment: &EncodedSegment,
    columns_by_name: &FxHashMap<&str, usize>,
    row: usize,
) {
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
    let exceptions: Vec<(&String, &Value)> = record
        .features
        .iter()
        .filter(|(name, value)| {
            let col = columns_by_name.get(name.as_str()).copied();
            !column_reconstructs(segment, row, col, value)
        })
        .collect();
    writer.put_u32(exceptions.len() as u32);
    for (name, value) in exceptions {
        writer.put_str(name);
        encode_value(writer, value);
    }
}

/// One record's identity and exception features, before the feature map is
/// rebuilt from the column segments.
struct RecordMeta {
    id: String,
    kind: ExecutionKind,
    parent_job: Option<String>,
    exceptions: Vec<(String, Value)>,
}

fn decode_record_meta(reader: &mut ByteReader<'_>) -> std::result::Result<RecordMeta, CodecError> {
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
    let mut exceptions = Vec::with_capacity(count.min(reader.remaining()));
    for _ in 0..count {
        let name = reader.get_str()?.to_string();
        let value = decode_value(reader, 0)?;
        exceptions.push((name, value));
    }
    Ok(RecordMeta {
        id,
        kind,
        parent_job,
        exceptions,
    })
}

/// Rebuilds one record's feature map: every present cell of its segment row
/// contributes its feature, then the stored exceptions overwrite or extend.
fn rebuild_record(meta: RecordMeta, segment: &EncodedSegment, row: usize) -> ExecutionRecord {
    let mut features = BTreeMap::new();
    for col in 0..segment.store.num_columns() {
        let value = match segment.store.value(row, col) {
            AttrValue::Missing => continue,
            AttrValue::Num(v) => Value::Num(v),
            AttrValue::Nom(id) => segment.originals[col][id as usize].clone(),
        };
        features.insert(segment.store.attribute(col).name.clone(), value);
    }
    for (name, value) in meta.exceptions {
        features.insert(name, value);
    }
    ExecutionRecord {
        id: meta.id,
        kind: meta.kind,
        parent_job: meta.parent_job,
        features,
    }
}

fn encode_columns(writer: &mut ByteWriter, segment: &EncodedSegment) {
    segment.store.encode_binary(writer);
    for column in &segment.originals {
        writer.put_u32(column.len() as u32);
        for value in column {
            encode_value(writer, value);
        }
    }
}

fn decode_columns(reader: &mut ByteReader<'_>) -> std::result::Result<EncodedSegment, CodecError> {
    let store = ColumnStore::decode_binary(reader)?;
    let mut originals = Vec::with_capacity(store.num_columns());
    for col in 0..store.num_columns() {
        let count = reader.get_u32()? as usize;
        // `cell_eq_const` and `decode` index the originals by dictionary
        // id, so the two must line up exactly or lookups would panic.
        if count != store.attribute(col).dictionary.len() {
            return Err(CodecError::Invalid(format!(
                "column '{}' stores {count} original value(s) for {} dictionary entries",
                store.attribute(col).name,
                store.attribute(col).dictionary.len()
            )));
        }
        let mut column = Vec::with_capacity(count.min(reader.remaining()));
        for _ in 0..count {
            column.push(decode_value(reader, 0)?);
        }
        originals.push(column);
    }
    Ok(EncodedSegment { store, originals })
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

/// One fully loaded shard of a snapshot: the records plus the encoded
/// column segments (local dictionaries) of both execution kinds.
#[derive(Debug, Clone)]
pub struct SnapshotShard {
    pub(super) records: Vec<ExecutionRecord>,
    pub(super) job: EncodedSegment,
    pub(super) task: EncodedSegment,
    pub(super) job_catalog: FeatureCatalog,
    pub(super) task_catalog: FeatureCatalog,
}

impl SnapshotShard {
    /// The shard's records, in ingest order.
    pub fn records(&self) -> &[ExecutionRecord] {
        &self.records
    }

    /// The shard-local catalog of one kind.
    pub fn catalog(&self, kind: ExecutionKind) -> &FeatureCatalog {
        match kind {
            ExecutionKind::Job => &self.job_catalog,
            ExecutionKind::Task => &self.task_catalog,
        }
    }

    /// The encoded column segment of one kind.
    pub(crate) fn segment(&self, kind: ExecutionKind) -> &EncodedSegment {
        match kind {
            ExecutionKind::Job => &self.job,
            ExecutionKind::Task => &self.task,
        }
    }

    /// Builds the shard's [`ExecutionLog`] (records + stored catalogs, no
    /// re-inference).
    pub(super) fn to_shard_log(&self) -> ExecutionLog {
        ExecutionLog::from_parts(
            self.records.clone(),
            self.job_catalog.clone(),
            self.task_catalog.clone(),
        )
    }
}

/// Per-block byte accounting of one encoded shard file (block length
/// prefixes included), plus the arithmetic size of its v1 equivalent.
pub(super) struct ShardSizes {
    pub(super) total: u64,
    pub(super) job: u64,
    pub(super) task: u64,
    pub(super) raw: u64,
}

/// Byte cost of one value in the v1 encoding ([`encode_value`] is
/// unchanged since v1, so this mirrors it exactly).
fn v1_value_bytes(value: &Value) -> u64 {
    match value {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Num(_) => 9,
        Value::Str(s) => 5 + s.len() as u64,
        Value::Pair(a, b) => 1 + v1_value_bytes(a) + v1_value_bytes(b),
    }
}

/// Exact size of the segment file v1 would have written for the same shard:
/// full per-record feature maps and one tag byte (+ fixed-width payload)
/// per cell.  Computed arithmetically — nothing is encoded.
fn v1_equivalent_bytes(
    records: &[ExecutionRecord],
    job: &EncodedSegment,
    task: &EncodedSegment,
) -> u64 {
    // Magic + version + three block length prefixes + the record count.
    let mut total = (SEGMENT_MAGIC.len() + 4 + 3 * 8 + 8) as u64;
    for record in records {
        total += 4 + record.id.len() as u64 + 1;
        total += match &record.parent_job {
            None => 1,
            Some(parent) => 5 + parent.len() as u64,
        };
        total += 4;
        for (name, value) in &record.features {
            total += 4 + name.len() as u64 + v1_value_bytes(value);
        }
    }
    for segment in [job, task] {
        let store = &segment.store;
        total += 4 + 8;
        for attribute in store.attributes() {
            total += 4 + attribute.name.len() as u64 + 1 + 4;
            for (_, value) in attribute.dictionary.iter() {
                total += 4 + value.len() as u64;
            }
        }
        for col in 0..store.num_columns() {
            for cell in store.column(col) {
                total += match cell {
                    AttrValue::Missing => 1,
                    AttrValue::Num(_) => 9,
                    AttrValue::Nom(_) => 5,
                };
            }
        }
        for column in &segment.originals {
            total += 4;
            for value in column {
                total += v1_value_bytes(value);
            }
        }
    }
    total
}

/// Column index per feature name, in the order [`encode_segment`] lays
/// columns out (catalog order).
fn columns_by_name(catalog: &FeatureCatalog) -> FxHashMap<&str, usize> {
    catalog
        .defs()
        .iter()
        .enumerate()
        .map(|(col, def)| (def.name.as_str(), col))
        .collect()
}

/// Encodes one shard into its segment file bytes, with byte accounting.
pub(super) fn encode_shard_file(
    records: &[ExecutionRecord],
    job_catalog: &FeatureCatalog,
    task_catalog: &FeatureCatalog,
) -> (Vec<u8>, ShardSizes) {
    let jobs: Vec<&ExecutionRecord> = records
        .iter()
        .filter(|r| r.kind == ExecutionKind::Job)
        .collect();
    let tasks: Vec<&ExecutionRecord> = records
        .iter()
        .filter(|r| r.kind == ExecutionKind::Task)
        .collect();
    let job_segment = encode_segment(job_catalog, &jobs);
    let task_segment = encode_segment(task_catalog, &tasks);
    let job_columns = columns_by_name(job_catalog);
    let task_columns = columns_by_name(task_catalog);

    let mut writer = ByteWriter::with_capacity(records.len() * 16 + 1024);
    writer.put_raw(SEGMENT_MAGIC);
    writer.put_u32(SNAPSHOT_VERSION);
    writer.put_block(|w| {
        w.put_u64(records.len() as u64);
        let mut job_at = 0usize;
        let mut task_at = 0usize;
        for record in records {
            let (segment, columns, at) = match record.kind {
                ExecutionKind::Job => (&job_segment, &job_columns, &mut job_at),
                ExecutionKind::Task => (&task_segment, &task_columns, &mut task_at),
            };
            let row = *at;
            *at += 1;
            encode_record_slim(w, record, segment, columns, row);
        }
    });
    let job_start = writer.len() as u64;
    writer.put_block(|w| encode_columns(w, &job_segment));
    let task_start = writer.len() as u64;
    writer.put_block(|w| encode_columns(w, &task_segment));
    let total = writer.len() as u64;
    let sizes = ShardSizes {
        total,
        job: task_start - job_start,
        task: total - task_start,
        raw: v1_equivalent_bytes(records, &job_segment, &task_segment),
    };
    (writer.into_bytes(), sizes)
}

/// Decodes a segment file (everything after fingerprint verification).
fn decode_shard_file(bytes: &[u8]) -> std::result::Result<ShardPayload, CodecError> {
    let mut reader = ByteReader::new(bytes);
    let magic = reader.take(SEGMENT_MAGIC.len())?;
    if magic != SEGMENT_MAGIC {
        return Err(CodecError::Invalid(
            "not a snapshot segment file (bad magic)".to_string(),
        ));
    }
    let version = reader.get_u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(CodecError::Invalid(format!(
            "segment format version {version} (supported: {SNAPSHOT_VERSION})"
        )));
    }
    let mut records_block = reader.get_block()?;
    let count = records_block.get_count()?;
    let mut metas = Vec::with_capacity(count.min(records_block.remaining()));
    for _ in 0..count {
        metas.push(decode_record_meta(&mut records_block)?);
    }
    let job = decode_columns(&mut reader.get_block()?)?;
    let task = decode_columns(&mut reader.get_block()?)?;

    // The feature maps are rebuilt by walking each record's segment row, so
    // the row counts must line up *before* any cell access (a zero-column
    // store cannot know its row count and contributes nothing — see
    // `load_shard`).
    for (kind, segment) in [(ExecutionKind::Job, &job), (ExecutionKind::Task, &task)] {
        let expected = metas.iter().filter(|m| m.kind == kind).count();
        if segment.store.num_columns() > 0 && segment.store.num_rows() != expected {
            return Err(CodecError::Invalid(format!(
                "{} segment encodes {} row(s) for {expected} {} record(s)",
                kind.as_str(),
                segment.store.num_rows(),
                kind.as_str()
            )));
        }
    }
    let mut job_at = 0usize;
    let mut task_at = 0usize;
    let records = metas
        .into_iter()
        .map(|meta| {
            let (segment, at) = match meta.kind {
                ExecutionKind::Job => (&job, &mut job_at),
                ExecutionKind::Task => (&task, &mut task_at),
            };
            let row = *at;
            *at += 1;
            rebuild_record(meta, segment, row)
        })
        .collect();
    Ok(ShardPayload { records, job, task })
}

/// The decoded body of a segment file (catalogs live in the manifest).
struct ShardPayload {
    records: Vec<ExecutionRecord>,
    job: EncodedSegment,
    task: EncodedSegment,
}

/// Decodes one fingerprint-verified segment file and checks it against its
/// manifest entry and the manifest's global catalogs.  Every failure is a
/// corruption message about that file.
pub(super) fn load_shard(
    bytes: &[u8],
    entry: &ShardEntry,
    manifest: &SnapshotManifest,
) -> std::result::Result<SnapshotShard, String> {
    if let Some(failure) = mlcore::failpoints::trigger("snapshot.segment.decode") {
        return Err(failure.into_io_error("snapshot.segment.decode").to_string());
    }
    // `decode_shard_file` already cross-checks each kind's segment row
    // count against its records (a zero-column store, whose catalog is
    // empty, cannot know its row count and is exempt).
    let payload = decode_shard_file(bytes).map_err(|e| e.to_string())?;
    if payload.records.len() as u64 != entry.rows {
        return Err(format!(
            "manifest records {} row(s), segment holds {}",
            entry.rows,
            payload.records.len()
        ));
    }
    for (kind, segment) in [
        (ExecutionKind::Job, &payload.job),
        (ExecutionKind::Task, &payload.task),
    ] {
        verify_segment_schema(segment, manifest.catalog(kind), kind)?;
    }
    Ok(SnapshotShard {
        records: payload.records,
        job: payload.job,
        task: payload.task,
        job_catalog: entry.job_catalog.clone(),
        task_catalog: entry.task_catalog.clone(),
    })
}

/// A stored segment's schema must match the manifest's global catalog
/// column for column — this is what catches a manifest whose catalogs were
/// edited out from under the segment files.
fn verify_segment_schema(
    segment: &EncodedSegment,
    catalog: &FeatureCatalog,
    kind: ExecutionKind,
) -> std::result::Result<(), String> {
    let attributes = segment.store.attributes();
    if attributes.len() != catalog.len() {
        return Err(format!(
            "{} segment has {} column(s), the manifest catalog {}",
            kind.as_str(),
            attributes.len(),
            catalog.len()
        ));
    }
    for (attribute, def) in attributes.iter().zip(catalog.defs()) {
        let kinds_match = match def.kind {
            FeatureKind::Numeric => attribute.kind == mlcore::AttrKind::Numeric,
            FeatureKind::Nominal => attribute.kind == mlcore::AttrKind::Nominal,
        };
        if attribute.name != def.name || !kinds_match {
            return Err(format!(
                "{} segment column '{}' does not match manifest feature '{}' ({})",
                kind.as_str(),
                attribute.name,
                def.name,
                def.kind
            ));
        }
    }
    Ok(())
}
