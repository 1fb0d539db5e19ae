//! The shuffle transports: in-memory gather vs. serialized spill.
//!
//! [`run_map_reduce`](crate::run_map_reduce) moves every mapper-emitted
//! `(K, V)` record to its reduce partition through a
//! [`ShuffleTransport`]. The key only routes: a reducer receives its
//! partition's values in map-task order, and within a task in emission
//! order. Two implementations exist:
//!
//! * [`InMemoryTransport`] — the default: each map task buffers its
//!   values per partition, and the shuffle appends the task buffers in
//!   map-task order into one exact-size `Vec` per partition. Fast, but
//!   the whole shuffle must fit in RAM.
//! * [`SerializedTransport`] — the out-of-core path: each map task
//!   buffers per-partition records, and whenever a partition's buffered
//!   [`SizeOf`] total exceeds `spill_threshold_bytes` it flushes the
//!   buffer, in emission order, as one checksummed **segment** of
//!   length-prefixed [`Record`] frames (key then value, a fixed
//!   little-endian layout whose encoded length equals `size_bytes`
//!   exactly). The reduce side decodes each partition's segments in
//!   (map task, flush) order into one exact-size `Vec` — the in-memory
//!   order, bit for bit. Segments live either in an in-memory byte store
//!   (unit tests, CI) or in a self-managed spill directory under the OS
//!   temp dir (real out-of-core runs; no `tempfile` dependency).
//!
//! Both transports produce identical partitions and identical
//! `shuffle_records` / `shuffle_bytes` accounting; the serialized one
//! additionally fills [`ShuffleStats`] (records/segments/bytes spilled
//! plus a CRC-32 xor-fold over every record frame). The CRC is the IEEE
//! one, computed slicing by 8 (eight table lookups per 8-byte chunk), so
//! its value is the bytewise definition's. Because xor is
//! commutative and every record is framed identically regardless of
//! which segment it lands in, `records_spilled` and `checksum` are
//! invariant across spill thresholds and worker-thread counts — only
//! the segment count and on-disk byte total vary with the threshold.

use crate::sizeof::SizeOf;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), slicing by 8, tables generated at compile time — no
// dependencies.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[t][b]` is
/// the CRC of byte `b` followed by `t` zero bytes, so eight lookups fold
/// one 8-byte chunk.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE polynomial) of `bytes` — the per-frame integrity hash
/// whose xor-fold becomes the segment, partition and job checksums.
/// Slicing by 8: each 8-byte chunk costs eight independent table
/// lookups instead of eight dependent ones, and the value is the
/// bytewise IEEE CRC's, bit for bit.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let x = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"))
            ^ u64::from(c);
        let byte = |i: u32| ((x >> (8 * i)) & 0xFF) as usize;
        c = t7[byte(0)]
            ^ t6[byte(1)]
            ^ t5[byte(2)]
            ^ t4[byte(3)]
            ^ t3[byte(4)]
            ^ t2[byte(5)]
            ^ t1[byte(6)]
            ^ t0[byte(7)];
    }
    for &b in chunks.remainder() {
        c = t0[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Record codec: fixed little-endian frames whose length == SizeOf.
// ---------------------------------------------------------------------------

/// A decode failure: truncated input, trailing bytes, or an invalid tag
/// or count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What the decoder was reading and why it failed.
    pub detail: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "record decode failed: {}", self.detail)
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over one record frame's bytes. Decoders pull
/// fixed-width prefixes with [`FrameReader::take`]; types whose element
/// count is implicit (no count prefix in their [`SizeOf`]) derive it
/// from [`FrameReader::remaining`].
pub struct FrameReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    /// Wraps one frame's payload.
    pub fn new(bytes: &'a [u8]) -> Self {
        FrameReader { bytes, pos: 0 }
    }

    /// Bytes left in the frame.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes the next `n` bytes, or errors if the frame is short.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError {
                detail: format!("wanted {n} bytes, frame has {} left", self.remaining()),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Asserts the frame was fully consumed (trailing bytes are a codec
    /// drift signal, not padding).
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError {
                detail: format!("{} trailing bytes after decode", self.remaining()),
            });
        }
        Ok(())
    }
}

/// Fixed little-endian encoding for shuffled records.
///
/// The contract every implementation must keep (and the `SizeOf`
/// coverage tests assert): **the encoded byte length equals
/// [`SizeOf::size_bytes`] exactly** — the estimator the engine's
/// `shuffle_bytes` accounting charges is the codec's real output size,
/// so the in-memory and serialized transports meter identical work.
pub trait Record: SizeOf {
    /// Appends this value's fixed little-endian encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the frame cursor.
    fn decode(reader: &mut FrameReader<'_>) -> Result<Self, CodecError>
    where
        Self: Sized;
}

macro_rules! int_record {
    ($($t:ty),*) => {$(
        impl Record for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(reader: &mut FrameReader<'_>) -> Result<Self, CodecError> {
                let bytes = reader.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returned exact width")))
            }
        }
    )*};
}

// The widths the engine's jobs build their records from.
int_record!(u8, u16, u32, u64, i64);

impl Record for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(reader: &mut FrameReader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::decode(reader)?))
    }
}

// ---------------------------------------------------------------------------
// Errors, stats, configuration.
// ---------------------------------------------------------------------------

/// Addresses one spill segment for error context: map task, reduce
/// partition, segment ordinal within that (task, partition) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentId {
    /// Map-task index that wrote the segment.
    pub task: usize,
    /// Reduce partition the segment belongs to.
    pub partition: usize,
    /// Flush ordinal within the (task, partition) pair.
    pub segment: u32,
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task {} partition {} segment {}", self.task, self.partition, self.segment)
    }
}

/// A structured serialized-shuffle failure. The engine's fallible entry
/// point surfaces these instead of panicking, so a corrupted or
/// truncated spill segment is a reportable error, never a silent wrong
/// answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShuffleError {
    /// Spill store I/O failed (create/write/read of the spill dir).
    Io {
        /// The failing operation, e.g. `"write segment"`.
        op: &'static str,
        /// The underlying error rendered as text.
        detail: String,
    },
    /// A segment's framing is malformed: bad magic, impossible lengths,
    /// or a record count that does not match the frames present.
    Corrupt {
        /// Which segment failed validation.
        segment: SegmentId,
        /// What was wrong with it.
        detail: String,
    },
    /// The xor-folded CRC-32 recomputed over a segment's record frames
    /// does not match the checksum written at spill time.
    ChecksumMismatch {
        /// Which segment failed verification.
        segment: SegmentId,
        /// The checksum the segment header claims.
        expected: u32,
        /// The checksum recomputed from the frames read back.
        actual: u32,
    },
    /// A frame's payload failed typed decoding.
    Decode {
        /// Which segment the frame came from.
        segment: SegmentId,
        /// The codec-level failure.
        source: CodecError,
    },
}

impl fmt::Display for ShuffleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShuffleError::Io { op, detail } => write!(f, "spill store {op} failed: {detail}"),
            ShuffleError::Corrupt { segment, detail } => {
                write!(f, "corrupt spill segment ({segment}): {detail}")
            }
            ShuffleError::ChecksumMismatch { segment, expected, actual } => write!(
                f,
                "spill segment checksum mismatch ({segment}): \
                 expected {expected:#010x}, read back {actual:#010x}"
            ),
            ShuffleError::Decode { segment, source } => {
                write!(f, "spill segment decode failed ({segment}): {source}")
            }
        }
    }
}

impl std::error::Error for ShuffleError {}

/// Serialized-shuffle work counters, all-zero on the in-memory
/// transport. `records_spilled` and `checksum` are threshold- and
/// thread-invariant (every record is framed once, xor commutes);
/// `spill_segments` / `spill_bytes` describe the segmentation the
/// threshold produced and vary with it — but never with thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleStats {
    /// Records encoded into spill segments (the serialized transport
    /// frames *every* record: buffers always flush at task end).
    pub records_spilled: u64,
    /// Spill segments written.
    pub spill_segments: u64,
    /// Total bytes written to the spill store (headers, frame length
    /// prefixes and payloads).
    pub spill_bytes: u64,
    /// Xor-fold of every record frame's CRC-32 (a 32-bit value widened
    /// to `u64` so all stats fields share one emission shape).
    pub checksum: u64,
}

impl ShuffleStats {
    /// Combines two jobs' stats: sums the volume counters, xors the
    /// checksums.
    pub fn merged(&self, other: &ShuffleStats) -> ShuffleStats {
        ShuffleStats {
            records_spilled: self.records_spilled + other.records_spilled,
            spill_segments: self.spill_segments + other.spill_segments,
            spill_bytes: self.spill_bytes + other.spill_bytes,
            checksum: self.checksum ^ other.checksum,
        }
    }
}

impl crate::metrics::Counters for ShuffleStats {
    fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        let ShuffleStats { records_spilled, spill_segments, spill_bytes, checksum } = self;
        f("records_spilled", *records_spilled);
        f("spill_segments", *spill_segments);
        f("spill_bytes", *spill_bytes);
        f("checksum", *checksum);
    }
}

/// Where the serialized transport keeps its spill segments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SpillSinkKind {
    /// An in-process byte store — unit tests and CI need no filesystem.
    #[default]
    Memory,
    /// A self-managed directory under [`std::env::temp_dir`], removed
    /// when the transport drops.
    TempDir,
}

/// An env var name the engine reads nowhere (clippy's DET006 bans env
/// reads): [`crate::ClusterConfig::default`] is always
/// [`ShuffleMode::InMemory`]. Kept only because the out-of-workspace
/// benchmark still names it; delete it when the benchmark stops.
pub const SPILL_THRESHOLD_ENV: &str = "TKIJ_SPILL_THRESHOLD";

/// Which shuffle transport a job uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShuffleMode {
    /// In-memory `Vec` gather (the default).
    #[default]
    InMemory,
    /// Frame-encoded segments with size-triggered spilling.
    Serialized {
        /// Buffered bytes (by [`SizeOf`]) per (task, partition) above
        /// which the buffer flushes to a segment. `0` spills after
        /// every record; `u64::MAX` yields one segment per nonempty
        /// (task, partition) unless its payload (frames plus 4-byte
        /// length prefixes) or record count would pass `u32::MAX`, the
        /// most a segment header can describe: whatever the threshold,
        /// the buffer flushes before that.
        spill_threshold_bytes: u64,
        /// Segment storage backend.
        sink: SpillSinkKind,
    },
}

// ---------------------------------------------------------------------------
// Segment encode / verify / decode.
// ---------------------------------------------------------------------------

/// Segment header magic: "TKSG" little-endian.
const SEGMENT_MAGIC: u32 = 0x4753_4B54;
/// Header: magic, record count, payload length, checksum — 4 × u32.
const SEGMENT_HEADER_BYTES: usize = 16;
/// Per-frame length prefix.
const FRAME_PREFIX_BYTES: usize = 4;

/// Whether a segment of `records` frames and `payload_bytes` (frames
/// plus their length prefixes) can take one more frame of `frame_bytes`
/// with its record count and payload length still fitting the header's
/// `u32` fields.
fn segment_has_room(records: usize, payload_bytes: u64, frame_bytes: u64) -> bool {
    let ceiling = u64::from(u32::MAX);
    (records as u64) < ceiling
        && payload_bytes.saturating_add(FRAME_PREFIX_BYTES as u64).saturating_add(frame_bytes)
            <= ceiling
}

/// Encodes records, in order, into one segment; returns the bytes and the
/// segment's xor-folded frame CRC. Each frame is written once, straight
/// into the segment buffer, and checksummed where it lies.
fn encode_segment<K: Record, V: Record>(records: &[(K, V)]) -> (Vec<u8>, u32) {
    let payload_bytes: usize =
        records.iter().map(|(k, v)| FRAME_PREFIX_BYTES + k.size_bytes() + v.size_bytes()).sum();
    let mut bytes = Vec::with_capacity(SEGMENT_HEADER_BYTES + payload_bytes);
    bytes.resize(SEGMENT_HEADER_BYTES, 0);
    let mut checksum = 0u32;
    for (k, v) in records {
        let prefix_at = bytes.len();
        bytes.extend_from_slice(&[0; FRAME_PREFIX_BYTES]);
        let start = bytes.len();
        k.encode(&mut bytes);
        v.encode(&mut bytes);
        let frame = &bytes[start..];
        debug_assert_eq!(
            frame.len(),
            k.size_bytes() + v.size_bytes(),
            "Record encoding drifted from its SizeOf estimate"
        );
        let len = u32::try_from(frame.len()).expect("record frame exceeds u32 length");
        checksum ^= crc32(frame);
        bytes[prefix_at..start].copy_from_slice(&len.to_le_bytes());
    }
    let count = u32::try_from(records.len())
        .expect("the sink flushes before a segment's record count passes u32::MAX");
    let payload_len = u32::try_from(bytes.len() - SEGMENT_HEADER_BYTES)
        .expect("the sink flushes before a segment's payload passes u32::MAX bytes");
    for (at, field) in [SEGMENT_MAGIC, count, payload_len, checksum].into_iter().enumerate() {
        bytes[4 * at..4 * at + 4].copy_from_slice(&field.to_le_bytes());
    }
    (bytes, checksum)
}

/// A verified, sequentially decodable spill segment.
///
/// [`SegmentReader::open`] validates the full framing up front — magic,
/// lengths, record count, and the xor-folded CRC-32 recomputed over
/// every frame — so corruption surfaces as a structured
/// [`ShuffleError`] before any typed decoding happens.
pub struct SegmentReader<K, V> {
    bytes: Vec<u8>,
    pos: usize,
    left: u32,
    id: SegmentId,
    _records: PhantomData<fn() -> (K, V)>,
}

fn header_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("sized header slice"))
}

impl<K: Record, V: Record> SegmentReader<K, V> {
    /// Validates `bytes` as a segment written by `encode_segment`.
    pub fn open(bytes: Vec<u8>, id: SegmentId) -> Result<Self, ShuffleError> {
        let corrupt = |detail: String| ShuffleError::Corrupt { segment: id, detail };
        if bytes.len() < SEGMENT_HEADER_BYTES {
            return Err(corrupt(format!("{} bytes is shorter than the header", bytes.len())));
        }
        if header_u32(&bytes, 0) != SEGMENT_MAGIC {
            return Err(corrupt(format!("bad magic {:#010x}", header_u32(&bytes, 0))));
        }
        let count = header_u32(&bytes, 4);
        let payload_len = header_u32(&bytes, 8) as usize;
        let expected = header_u32(&bytes, 12);
        if bytes.len() != SEGMENT_HEADER_BYTES + payload_len {
            return Err(corrupt(format!(
                "payload length {} does not match {} segment bytes",
                payload_len,
                bytes.len()
            )));
        }
        // Walk the frames once: count them and fold their CRCs.
        let mut pos = SEGMENT_HEADER_BYTES;
        let mut seen = 0u32;
        let mut actual = 0u32;
        while pos < bytes.len() {
            if bytes.len() - pos < FRAME_PREFIX_BYTES {
                return Err(corrupt(format!("truncated frame prefix at offset {pos}")));
            }
            let frame_len = header_u32(&bytes, pos) as usize;
            pos += FRAME_PREFIX_BYTES;
            if bytes.len() - pos < frame_len {
                return Err(corrupt(format!(
                    "frame of {frame_len} bytes at offset {pos} overruns the segment"
                )));
            }
            actual ^= crc32(&bytes[pos..pos + frame_len]);
            pos += frame_len;
            seen += 1;
        }
        if seen != count {
            return Err(corrupt(format!("header claims {count} records, found {seen}")));
        }
        if actual != expected {
            return Err(ShuffleError::ChecksumMismatch { segment: id, expected, actual });
        }
        Ok(SegmentReader {
            bytes,
            pos: SEGMENT_HEADER_BYTES,
            left: count,
            id,
            _records: PhantomData,
        })
    }

    /// Decodes the next record, or `None` when the segment is drained.
    #[allow(
        clippy::type_complexity,
        reason = "the iterator item of a fallible decode, spelled out once"
    )]
    pub fn next_record(&mut self) -> Option<Result<(K, V), ShuffleError>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let frame_len = header_u32(&self.bytes, self.pos) as usize;
        let start = self.pos + FRAME_PREFIX_BYTES;
        self.pos = start + frame_len;
        let mut reader = FrameReader::new(&self.bytes[start..start + frame_len]);
        let decoded = (|| {
            let k = K::decode(&mut reader)?;
            let v = V::decode(&mut reader)?;
            reader.finish()?;
            Ok((k, v))
        })();
        Some(decoded.map_err(|source| ShuffleError::Decode { segment: self.id, source }))
    }
}

// ---------------------------------------------------------------------------
// Spill stores.
// ---------------------------------------------------------------------------

type SegmentKey = (usize, usize, u32);

/// A self-managed spill directory under the OS temp dir. Named by
/// process id plus a process-global counter (no clocks, no thread ids —
/// the determinism lint rules hold), removed on drop.
struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    fn create() -> Result<SpillDir, ShuffleError> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // Relaxed ordering suffices: the counter only needs each
        // fetch_add to hand out a distinct value (atomicity), never to
        // order any other memory access — directory names don't race.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("tkij-spill-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| ShuffleError::Io { op: "create spill dir", detail: e.to_string() })?;
        Ok(SpillDir { path })
    }

    fn segment_path(&self, (task, partition, segment): SegmentKey) -> PathBuf {
        self.path.join(format!("t{task}_p{partition}_s{segment}.seg"))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Cleanup is best-effort: a leftover dir under temp is benign.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Segment storage shared by all of a transport's task sinks.
enum SegmentStore {
    Memory(Mutex<BTreeMap<SegmentKey, Vec<u8>>>),
    Dir(SpillDir),
}

impl SegmentStore {
    fn put(&self, key: SegmentKey, bytes: Vec<u8>) -> Result<(), ShuffleError> {
        match self {
            SegmentStore::Memory(map) => {
                map.lock().insert(key, bytes);
                Ok(())
            }
            SegmentStore::Dir(dir) => std::fs::write(dir.segment_path(key), bytes)
                .map_err(|e| ShuffleError::Io { op: "write segment", detail: e.to_string() }),
        }
    }

    fn take(&self, key: SegmentKey) -> Result<Vec<u8>, ShuffleError> {
        match self {
            SegmentStore::Memory(map) => map.lock().remove(&key).ok_or(ShuffleError::Io {
                op: "read segment",
                detail: format!("segment {key:?} missing from the in-memory store"),
            }),
            SegmentStore::Dir(dir) => std::fs::read(dir.segment_path(key))
                .map_err(|e| ShuffleError::Io { op: "read segment", detail: e.to_string() }),
        }
    }
}

// ---------------------------------------------------------------------------
// Task sinks and transports.
// ---------------------------------------------------------------------------

/// One map task's record receiver. The [`Emitter`](crate::Emitter)
/// routes each emitted record here after partitioning; the sink is
/// object-safe so one mapper closure serves every transport.
pub trait TaskSink<K, V> {
    /// Accepts one record routed to `partition` (already range-checked
    /// by the emitter).
    fn accept(&mut self, partition: usize, key: K, value: V);
}

/// Moves records from map tasks to reduce partitions. `sinks` arrive in
/// map-task order; [`ShuffleTransport::gather`] must reproduce the
/// engine's canonical partition order: each partition's values in
/// map-task order, and within a task in emission order.
pub trait ShuffleTransport<K, V>: Sync {
    /// The per-map-task record receiver.
    type Sink: TaskSink<K, V> + Send;

    /// Creates map task `task`'s sink.
    fn task_sink(&self, task: usize, num_partitions: usize) -> Self::Sink;

    /// Consumes every task's sink (task order) into the partitions'
    /// values plus the shuffle accounting.
    fn gather(
        &self,
        sinks: Vec<Self::Sink>,
        num_partitions: usize,
    ) -> Result<ShuffleOutput<K, V>, ShuffleError>;
}

/// What a shuffle produces: each partition's values plus the
/// per-partition record/byte accounting and the spill stats. `K` is the
/// records' key type: routing reads it, and no partition keeps it.
pub struct ShuffleOutput<K, V> {
    /// Per partition: its values in (map task, emission) order.
    pub partitions: Vec<Vec<V>>,
    /// Records shuffled into each partition.
    pub shuffle_records: Vec<u64>,
    /// [`SizeOf`] bytes (key + value) shuffled into each partition.
    pub shuffle_bytes: Vec<u64>,
    /// Spill accounting (all-zero for the in-memory transport).
    pub stats: ShuffleStats,
    _key: PhantomData<fn() -> K>,
}

/// The default transport: per-partition value buffers, appended in
/// map-task order into one exact-size `Vec` per partition.
pub struct InMemoryTransport;

/// The in-memory transport's sink: per partition, the values in
/// emission order and their records' [`SizeOf`] bytes.
pub struct MemorySink<V> {
    values: Vec<Vec<V>>,
    bytes: Vec<u64>,
}

impl<V> MemorySink<V> {
    pub(crate) fn new(num_partitions: usize) -> Self {
        MemorySink {
            values: (0..num_partitions).map(|_| Vec::new()).collect(),
            bytes: vec![0; num_partitions],
        }
    }
}

impl<K: SizeOf, V: SizeOf> TaskSink<K, V> for MemorySink<V> {
    fn accept(&mut self, partition: usize, key: K, value: V) {
        self.bytes[partition] += (key.size_bytes() + value.size_bytes()) as u64;
        self.values[partition].push(value);
    }
}

impl<K, V> ShuffleTransport<K, V> for InMemoryTransport
where
    K: SizeOf,
    V: Send + SizeOf,
{
    type Sink = MemorySink<V>;

    fn task_sink(&self, _task: usize, num_partitions: usize) -> MemorySink<V> {
        MemorySink::new(num_partitions)
    }

    fn gather(
        &self,
        sinks: Vec<MemorySink<V>>,
        num_partitions: usize,
    ) -> Result<ShuffleOutput<K, V>, ShuffleError> {
        let mut shuffle_records = vec![0u64; num_partitions];
        let mut shuffle_bytes = vec![0u64; num_partitions];
        for sink in &sinks {
            for (p, values) in sink.values.iter().enumerate() {
                shuffle_records[p] += values.len() as u64;
                shuffle_bytes[p] += sink.bytes[p];
            }
        }
        let mut partitions: Vec<Vec<V>> =
            shuffle_records.iter().map(|&n| Vec::with_capacity(n as usize)).collect();
        for sink in sinks {
            for (partition, mut values) in partitions.iter_mut().zip(sink.values) {
                partition.append(&mut values);
            }
        }
        Ok(ShuffleOutput {
            partitions,
            shuffle_records,
            shuffle_bytes,
            stats: ShuffleStats::default(),
            _key: PhantomData,
        })
    }
}

/// The out-of-core transport: frame-encoded, checksummed spill segments
/// with size-triggered flushing, read back in (task, flush) order.
pub struct SerializedTransport {
    spill_threshold_bytes: u64,
    store: Arc<SegmentStore>,
}

impl SerializedTransport {
    /// Builds the transport for the given sink kind (creating the spill
    /// directory when `sink` is [`SpillSinkKind::TempDir`]).
    pub fn new(spill_threshold_bytes: u64, sink: SpillSinkKind) -> Result<Self, ShuffleError> {
        let store = match sink {
            SpillSinkKind::Memory => SegmentStore::Memory(Mutex::new(BTreeMap::new())),
            SpillSinkKind::TempDir => SegmentStore::Dir(SpillDir::create()?),
        };
        Ok(SerializedTransport { spill_threshold_bytes, store: Arc::new(store) })
    }

    /// The filesystem-free variant unit tests use.
    pub fn in_memory(spill_threshold_bytes: u64) -> Self {
        SerializedTransport::new(spill_threshold_bytes, SpillSinkKind::Memory)
            .expect("the in-memory spill store cannot fail to construct")
    }
}

/// Per-(task, partition) spill accounting and the not-yet-flushed
/// record buffer.
struct PartitionBuffer<K, V> {
    records: Vec<(K, V)>,
    buffered_bytes: u64,
    /// `shuffle_records` contribution (== records framed: everything
    /// flushes by task end).
    records_total: u64,
    /// `shuffle_bytes` contribution ([`SizeOf`], matching the in-memory
    /// transport bit for bit).
    bytes_total: u64,
    segments: u32,
    spill_bytes: u64,
    checksum: u32,
}

impl<K, V> PartitionBuffer<K, V> {
    fn new() -> Self {
        PartitionBuffer {
            records: Vec::new(),
            buffered_bytes: 0,
            records_total: 0,
            bytes_total: 0,
            segments: 0,
            spill_bytes: 0,
            checksum: 0,
        }
    }
}

/// The serialized transport's sink: buffers per partition, flushing a
/// checksummed segment whenever the buffered [`SizeOf`] total exceeds
/// the spill threshold (and always at task end). Once a segment write
/// fails, the sink drops every later record: the gather reports the
/// failure, so nothing more of the task is worth holding.
pub struct SerializedSink<K, V> {
    task: usize,
    threshold: u64,
    store: Arc<SegmentStore>,
    parts: Vec<PartitionBuffer<K, V>>,
    error: Option<ShuffleError>,
}

impl<K: Record, V: Record> SerializedSink<K, V> {
    fn flush(&mut self, partition: usize) {
        let pb = &mut self.parts[partition];
        if pb.records.is_empty() || self.error.is_some() {
            return;
        }
        // Taken, not cleared: the sink lives until the gather, and a
        // cleared buffer would keep its peak capacity until then.
        let (bytes, checksum) = encode_segment(&std::mem::take(&mut pb.records));
        pb.buffered_bytes = 0;
        let key = (self.task, partition, pb.segments);
        let len = bytes.len() as u64;
        if let Err(e) = self.store.put(key, bytes) {
            self.error = Some(e);
            return;
        }
        pb.checksum ^= checksum;
        pb.spill_bytes += len;
        pb.segments += 1;
    }

    /// Flushes every partition's remaining buffer — called by
    /// [`SerializedTransport::gather`] before reading anything back.
    fn finish(&mut self) {
        for p in 0..self.parts.len() {
            self.flush(p);
        }
    }
}

impl<K: Record, V: Record> TaskSink<K, V> for SerializedSink<K, V> {
    fn accept(&mut self, partition: usize, key: K, value: V) {
        if self.error.is_some() {
            return;
        }
        let size = (key.size_bytes() + value.size_bytes()) as u64;
        let pb = &self.parts[partition];
        let payload_bytes = pb.buffered_bytes + (FRAME_PREFIX_BYTES * pb.records.len()) as u64;
        if !segment_has_room(pb.records.len(), payload_bytes, size) {
            self.flush(partition);
            if self.error.is_some() {
                return;
            }
        }
        let pb = &mut self.parts[partition];
        pb.records_total += 1;
        pb.bytes_total += size;
        pb.buffered_bytes += size;
        pb.records.push((key, value));
        if pb.buffered_bytes > self.threshold {
            self.flush(partition);
        }
    }
}

impl<K, V> ShuffleTransport<K, V> for SerializedTransport
where
    K: Send + Record,
    V: Send + Record,
{
    type Sink = SerializedSink<K, V>;

    fn task_sink(&self, task: usize, num_partitions: usize) -> SerializedSink<K, V> {
        SerializedSink {
            task,
            threshold: self.spill_threshold_bytes,
            store: Arc::clone(&self.store),
            parts: (0..num_partitions).map(|_| PartitionBuffer::new()).collect(),
            error: None,
        }
    }

    fn gather(
        &self,
        mut sinks: Vec<SerializedSink<K, V>>,
        num_partitions: usize,
    ) -> Result<ShuffleOutput<K, V>, ShuffleError> {
        for sink in &mut sinks {
            sink.finish();
            if let Some(error) = sink.error.take() {
                return Err(error);
            }
        }
        let mut shuffle_records = vec![0u64; num_partitions];
        let mut shuffle_bytes = vec![0u64; num_partitions];
        let mut stats = ShuffleStats::default();
        let mut partitions = Vec::with_capacity(num_partitions);
        for partition in 0..num_partitions {
            shuffle_records[partition] =
                sinks.iter().map(|s| s.parts[partition].records_total).sum();
            let mut values = Vec::with_capacity(shuffle_records[partition] as usize);
            for sink in &sinks {
                let pb = &sink.parts[partition];
                shuffle_bytes[partition] += pb.bytes_total;
                stats.records_spilled += pb.records_total;
                stats.spill_segments += pb.segments as u64;
                stats.spill_bytes += pb.spill_bytes;
                stats.checksum ^= pb.checksum as u64;
                for segment in 0..pb.segments {
                    let key = (sink.task, partition, segment);
                    let id = SegmentId { task: sink.task, partition, segment };
                    let mut reader = SegmentReader::<K, V>::open(self.store.take(key)?, id)?;
                    while let Some(record) = reader.next_record() {
                        values.push(record?.1);
                    }
                }
            }
            partitions.push(values);
        }
        Ok(ShuffleOutput { partitions, shuffle_records, shuffle_bytes, stats, _key: PhantomData })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A variable-length test record: a count-prefixed run of `u32`s,
    /// framed like the jobs' tuple records.
    #[derive(Debug, Clone, PartialEq)]
    struct Words(Vec<u32>);

    impl SizeOf for Words {
        fn size_bytes(&self) -> usize {
            8 + 4 * self.0.len()
        }
    }

    impl Record for Words {
        fn encode(&self, out: &mut Vec<u8>) {
            (self.0.len() as u64).encode(out);
            for w in &self.0 {
                w.encode(out);
            }
        }
        fn decode(reader: &mut FrameReader<'_>) -> Result<Self, CodecError> {
            let len = u64::decode(reader)? as usize;
            if len > reader.remaining() / 4 {
                return Err(CodecError { detail: format!("count {len} exceeds frame") });
            }
            (0..len).map(|_| u32::decode(reader)).collect::<Result<_, _>>().map(Words)
        }
    }

    /// `Words` numbered `i`, of `i % 4` words.
    fn words(i: u32) -> Words {
        Words((0..i % 4).map(|w| i * 10 + w).collect())
    }

    /// The bytewise CRC-32 (one dependent table lookup per byte): the
    /// definition the sliced kernel must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn roundtrip<T: Record + PartialEq + std::fmt::Debug>(value: &T) {
        let mut bytes = Vec::new();
        value.encode(&mut bytes);
        assert_eq!(
            bytes.len(),
            value.size_bytes(),
            "encoded length must equal size_bytes for {value:?}"
        );
        let mut reader = FrameReader::new(&bytes);
        let back = T::decode(&mut reader).expect("decode");
        reader.finish().expect("fully consumed");
        assert_eq!(&back, value);
    }

    /// `size_bytes` equals the actual encoded frame length for every
    /// type the shuffle serializes (and the codec round-trips them
    /// bit-identically).
    #[test]
    fn sizeof_matches_encoded_length_for_all_record_types() {
        roundtrip(&0xABu8);
        roundtrip(&0xABCDu16);
        roundtrip(&0xDEAD_BEEFu32);
        roundtrip(&0x0123_4567_89AB_CDEFu64);
        roundtrip(&i64::MIN);
        roundtrip(&-0.0f64);
        roundtrip(&Words(Vec::new()));
        roundtrip(&Words(vec![1, 2, 3]));
        // NaN keeps its exact bit pattern through the f64 codec.
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut bytes = Vec::new();
        nan.encode(&mut bytes);
        assert_eq!(bytes.len(), nan.size_bytes());
        let back = f64::decode(&mut FrameReader::new(&bytes)).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn decode_rejects_truncation_and_overrunning_counts() {
        let mut bytes = Vec::new();
        7u64.encode(&mut bytes);
        let mut short = FrameReader::new(&bytes[..5]);
        assert!(u64::decode(&mut short).is_err());

        // A count prefix that overruns the frame.
        let mut bytes = Vec::new();
        100u64.encode(&mut bytes);
        bytes.extend_from_slice(b"short");
        assert!(Words::decode(&mut FrameReader::new(&bytes)).is_err());
    }

    proptest! {
        /// Arbitrary `(K, V)` batches encode→decode bit-identically
        /// through whole segments — including empty batches, empty
        /// records, and every segment-boundary split a random spill
        /// threshold induces.
        #[test]
        fn prop_segment_roundtrip(
            raw in proptest::collection::vec(
                (0u64..50, proptest::collection::vec(0u32..1000, 0..6)),
                0..40,
            ),
            threshold in 0u64..256,
        ) {
            let records: Vec<(u64, Words)> =
                raw.into_iter().map(|(k, v)| (k, Words(v))).collect();
            // Whole-batch segment round-trip.
            let (bytes, _) = encode_segment(&records);
            let id = SegmentId { task: 0, partition: 0, segment: 0 };
            let mut reader: SegmentReader<u64, Words> =
                SegmentReader::open(bytes, id).expect("segment verifies");
            let mut back = Vec::new();
            while let Some(record) = reader.next_record() {
                back.push(record.expect("record decodes"));
            }
            prop_assert_eq!(&back, &records);

            // Threshold-split spill through the sink: the read-back
            // values are the batch's in emission order, whatever the
            // splits.
            let transport = SerializedTransport::in_memory(threshold);
            let mut sink: SerializedSink<u64, Words> =
                ShuffleTransport::task_sink(&transport, 0, 1);
            for (k, v) in records.clone() {
                sink.accept(0, k, v);
            }
            let out = ShuffleTransport::gather(&transport, vec![sink], 1).expect("gather");
            let expected: Vec<Words> = records.iter().map(|(_, v)| v.clone()).collect();
            prop_assert_eq!(&out.partitions[0], &expected);
            prop_assert_eq!(out.shuffle_records[0] as usize, records.len());
            prop_assert_eq!(out.stats.records_spilled as usize, records.len());
        }

        /// The sliced kernel equals the bytewise definition on every
        /// length up to 200 bytes, at every start offset within an
        /// 8-byte chunk (so chunks and tails fall unaligned).
        #[test]
        fn prop_crc32_matches_bytewise(
            buffer in proptest::collection::vec(0u8..=255, 208),
            len in 0usize..=200,
        ) {
            for offset in 0..8 {
                let bytes = &buffer[offset..offset + len];
                prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes), "offset {}", offset);
            }
        }

        /// The spill stats' threshold invariants: `records_spilled` and
        /// `checksum` never move with the threshold; the segmentation
        /// (`spill_segments`) shrinks monotonically as it grows.
        #[test]
        fn prop_checksum_invariant_across_thresholds(
            records in proptest::collection::vec((0u64..20, 0u64..1000), 1..60),
        ) {
            let mut stats = Vec::new();
            for threshold in [0u64, 64, u64::MAX] {
                let transport = SerializedTransport::in_memory(threshold);
                let mut sink: SerializedSink<u64, u64> =
                    ShuffleTransport::task_sink(&transport, 0, 2);
                for &(k, v) in &records {
                    sink.accept((k % 2) as usize, k, v);
                }
                let out = ShuffleTransport::gather(&transport, vec![sink], 2).expect("gather");
                stats.push(out.stats);
            }
            for s in &stats {
                prop_assert_eq!(s.records_spilled as usize, records.len());
                prop_assert_eq!(s.checksum, stats[0].checksum);
            }
            prop_assert!(stats[0].spill_segments >= stats[1].spill_segments);
            prop_assert!(stats[1].spill_segments >= stats[2].spill_segments);
        }
    }

    /// One flipped byte in a spilled segment surfaces as a structured
    /// checksum error — not a panic, not a wrong answer.
    #[test]
    fn corruption_is_detected_as_a_structured_error() {
        let records: Vec<(u64, Words)> = (0..20).map(|i| (i as u64 % 5, words(i + 1))).collect();
        let (bytes, _) = encode_segment(&records);
        let id = SegmentId { task: 1, partition: 2, segment: 3 };

        // Pristine bytes verify.
        assert!(SegmentReader::<u64, Words>::open(bytes.clone(), id).is_ok());

        // Flip one payload byte: the recomputed frame CRC xor-fold must
        // disagree with the header.
        let mut corrupted = bytes.clone();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0x40;
        match SegmentReader::<u64, Words>::open(corrupted, id) {
            Err(ShuffleError::ChecksumMismatch { segment, expected, actual }) => {
                assert_eq!(segment, id);
                assert_ne!(expected, actual);
            }
            other => panic!("expected a checksum mismatch, got {:?}", other.map(|_| ())),
        }

        // Truncation is caught by the framing validation.
        let truncated = bytes[..bytes.len() - 3].to_vec();
        match SegmentReader::<u64, Words>::open(truncated, id) {
            Err(ShuffleError::Corrupt { segment, .. }) => assert_eq!(segment, id),
            other => panic!("expected a corrupt-segment error, got {:?}", other.map(|_| ())),
        }

        // A flipped magic byte is framing corruption too.
        let mut bad_magic = bytes;
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            SegmentReader::<u64, Words>::open(bad_magic, id),
            Err(ShuffleError::Corrupt { .. })
        ));
    }

    /// Every single-bit flip anywhere in a segment — header, length
    /// prefix or frame — fails verification before anything decodes.
    #[test]
    fn every_single_bit_flip_is_reported() {
        let records: Vec<(u64, Words)> = (1..=6).map(|i| (u64::from(i), words(i))).collect();
        let (bytes, _) = encode_segment(&records);
        assert_eq!(bytes.len(), 172);
        let id = SegmentId { task: 0, partition: 0, segment: 0 };
        assert!(SegmentReader::<u64, Words>::open(bytes.clone(), id).is_ok());
        for bit in 0..8 * bytes.len() {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                SegmentReader::<u64, Words>::open(flipped, id).is_err(),
                "flipping bit {bit} went unreported"
            );
        }
    }

    /// A segment header holds its record count and payload length as
    /// `u32`: the sink flushes before one more frame would push either
    /// past `u32::MAX`, whatever the spill threshold.
    #[test]
    fn segment_room_stops_at_the_header_ceiling() {
        let max = u64::from(u32::MAX);
        let prefix = FRAME_PREFIX_BYTES as u64;
        assert!(segment_has_room(0, 0, 30));
        assert!(segment_has_room(0, 0, max - prefix));
        assert!(!segment_has_room(0, 0, max - prefix + 1));
        assert!(segment_has_room(1000, max - prefix - 30, 30));
        assert!(!segment_has_room(1000, max - prefix - 29, 30));
        assert!(!segment_has_room(1000, max, 0));
        assert!(!segment_has_room(1000, 0, u64::MAX));
        assert!(segment_has_room(u32::MAX as usize - 1, 0, 0));
        assert!(!segment_has_room(u32::MAX as usize, 0, 0));
    }

    /// The serialized gather must equal the in-memory gather bit for bit
    /// on partition values and record/byte accounting, across thresholds
    /// and multi-task emission patterns (several keys per partition,
    /// repeated within and across tasks).
    #[test]
    fn serialized_gather_matches_in_memory() {
        let tasks: Vec<Vec<(u64, Words)>> = vec![
            (0..30).map(|i| (i as u64 % 7, words(i))).collect(),
            (0..20).map(|i| (i as u64 % 3, words(100 + i))).collect(),
            Vec::new(),
            (0..10).map(|i| (13 - i as u64, words(300 + i))).collect(),
        ];
        let parts = 3;

        let mut mem_sinks = Vec::new();
        for records in &tasks {
            let mut sink = MemorySink::new(parts);
            for (k, v) in records {
                sink.accept((*k % parts as u64) as usize, *k, v.clone());
            }
            mem_sinks.push(sink);
        }
        let reference: ShuffleOutput<u64, Words> =
            ShuffleTransport::gather(&InMemoryTransport, mem_sinks, parts).unwrap();

        for threshold in [0u64, 40, 200, u64::MAX] {
            let transport = SerializedTransport::in_memory(threshold);
            let mut sinks = Vec::new();
            for (t, records) in tasks.iter().enumerate() {
                let mut sink: SerializedSink<u64, Words> =
                    ShuffleTransport::task_sink(&transport, t, parts);
                for (k, v) in records {
                    sink.accept((*k % parts as u64) as usize, *k, v.clone());
                }
                sinks.push(sink);
            }
            let out = ShuffleTransport::gather(&transport, sinks, parts).unwrap();
            assert_eq!(out.partitions, reference.partitions, "threshold {threshold}");
            assert_eq!(out.shuffle_records, reference.shuffle_records);
            assert_eq!(out.shuffle_bytes, reference.shuffle_bytes);
            assert_eq!(out.stats.records_spilled, 60);
            assert!(out.stats.spill_segments > 0);
        }
    }

    /// The temp-dir store round-trips segments through real files and
    /// produces stats identical to the in-memory store.
    #[test]
    fn temp_dir_store_matches_memory_store() {
        let run = |sink_kind: SpillSinkKind| {
            let transport = SerializedTransport::new(64, sink_kind).expect("transport");
            let mut sink: SerializedSink<u64, u64> = ShuffleTransport::task_sink(&transport, 0, 2);
            for i in 0..40u64 {
                sink.accept((i % 2) as usize, i % 5, i);
            }
            let out = ShuffleTransport::gather(&transport, vec![sink], 2).expect("gather");
            (out.partitions, out.stats)
        };
        let (mem_partitions, mem_stats) = run(SpillSinkKind::Memory);
        let (dir_partitions, dir_stats) = run(SpillSinkKind::TempDir);
        assert_eq!(dir_partitions, mem_partitions);
        assert_eq!(dir_stats, mem_stats);
        assert!(dir_stats.spill_bytes > 0);
    }

    /// A flush hands its staging buffer over whole. Every task's sink
    /// lives until the gather, so a cleared buffer would keep the
    /// capacity of its largest segment until then.
    #[test]
    fn flushed_partition_keeps_no_staging_capacity() {
        let transport = SerializedTransport::in_memory(64);
        let mut sink: SerializedSink<u64, u64> = ShuffleTransport::task_sink(&transport, 0, 2);
        for i in 0..37u64 {
            sink.accept(0, i, i);
        }
        assert!(sink.parts[0].segments > 1 && !sink.parts[0].records.is_empty());
        sink.finish();
        assert!(sink.parts.iter().all(|pb| pb.records.capacity() == 0));
    }

    /// After a failed segment write the sink drops the rest of its
    /// task's records instead of buffering them, and the gather reports
    /// the write.
    #[test]
    fn failed_sink_drops_later_records() {
        let transport = SerializedTransport::new(0, SpillSinkKind::TempDir).expect("transport");
        let SegmentStore::Dir(dir) = &*transport.store else {
            unreachable!("a temp-dir transport stores segments in its directory")
        };
        std::fs::remove_dir_all(&dir.path).expect("remove the spill dir");
        let mut sink: SerializedSink<u64, u64> = ShuffleTransport::task_sink(&transport, 0, 2);
        for i in 0..100u64 {
            sink.accept((i % 2) as usize, i, i);
        }
        assert!(sink.parts.iter().all(|pb| pb.records.is_empty()), "a failed sink buffers nothing");
        match ShuffleTransport::gather(&transport, vec![sink], 2) {
            Err(ShuffleError::Io { op, .. }) => assert_eq!(op, "write segment"),
            other => panic!("expected a segment-write error, got {:?}", other.map(|_| ())),
        }
    }

    /// The spill directory removes itself when the transport drops.
    #[test]
    fn spill_dir_cleans_up_on_drop() {
        let dir = SpillDir::create().expect("create");
        let path = dir.path.clone();
        std::fs::write(path.join("probe.seg"), b"x").unwrap();
        assert!(path.exists());
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn merged_stats_sum_and_xor() {
        let a = ShuffleStats {
            records_spilled: 3,
            spill_segments: 2,
            spill_bytes: 100,
            checksum: 0b1100,
        };
        let b = ShuffleStats {
            records_spilled: 5,
            spill_segments: 1,
            spill_bytes: 50,
            checksum: 0b1010,
        };
        let m = a.merged(&b);
        assert_eq!(m.records_spilled, 8);
        assert_eq!(m.spill_segments, 3);
        assert_eq!(m.spill_bytes, 150);
        assert_eq!(m.checksum, 0b0110);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Lengths either side of one and two 8-byte chunks.
        let bytes: Vec<u8> = (0..17u8).map(|b| b.wrapping_mul(37) ^ 0xA5).collect();
        for len in [7, 8, 9, 15, 16, 17] {
            assert_eq!(crc32(&bytes[..len]), crc32_bytewise(&bytes[..len]), "length {len}");
        }
    }
}
