//! `.tlb` (*tracelens binary*) — the columnar on-disk trace store.
//!
//! A packed data set holds the same information as the `.tlt` text
//! format, laid out for load speed instead of readability: the symbol
//! and stack tables are written once, each stream's events live in
//! struct-of-arrays columns (one contiguous array per field), and
//! loading is a bounded sequence of column reads instead of a per-line
//! parse. The paper's corpus is re-analyzed far more often than it is
//! collected, so the pack cost is paid once and every later run starts
//! at column-read speed.
//!
//! ## Layout (version 2)
//!
//! ```text
//! header (32 bytes)
//!   magic      "TLB!"          4 bytes
//!   version    u32             bumped on any layout change
//!   fingerprint u64            FNV-1a of the *source text* bytes
//!   payload_len u64
//!   checksum   u64             FNV-1a of the payload bytes
//! payload (all integers little-endian)
//!   symbols    count, then per symbol: len + UTF-8 bytes
//!   stacks     count, frame-count column, frame total, flat
//!              frame-symbol column
//!   names      scenario-name table (count, then len + bytes each)
//!   scenarios  count, name-index, t_fast, t_slow columns
//!   streams    count, total events, then one block per stream:
//!                id u32, event count u64,
//!                kind u8 / tid u32 / pid u32 / t u64 / cost u64 /
//!                stack u32 columns over this stream's events,
//!                wtid presence bitmap, wtid count u32, wtid values
//!   instances  count, trace, tid, t0, t1, name-index columns
//! ```
//!
//! Because every stream's columns sit together, the writer and the
//! reader both walk the file once, front to back, through fixed
//! buffers: [`Dataset::write_binary`] encodes stream by stream through
//! one [`IO_CHUNK`] buffer, hashing as it writes, and seeks back to
//! patch the payload length and checksum into the header;
//! [`Dataset::read_binary_from`] hashes exactly the bytes it decodes and
//! buffers at most one stream block. [`Dataset::to_binary`] and
//! [`Dataset::read_binary`] are the in-memory forms of the same encoder
//! and decoder.
//!
//! The fingerprint identifies *which text* a cache was packed from; the
//! checksum proves the payload arrived intact. A reader rejects any
//! torn, bit-flipped, or version-skewed file with a typed
//! [`BinReadError`] — callers (the `--cache` layer) then fall back to
//! the text parse. A damaged payload is reported as
//! [`BinReadError::ChecksumMismatch`] whatever decode error it caused
//! first. Reading is loss-free even for data sets that would fail
//! validation (unsorted streams, dangling stack ids survive a round
//! trip unchanged), so packing never launders corruption.

use crate::dataset::Dataset;
use crate::event::{Event, EventKind};
use crate::ids::{ProcessId, ThreadId, TraceId};
use crate::intern::Symbol;
use crate::scenario::{Scenario, ScenarioInstance, ScenarioName, Thresholds};
use crate::stack::StackId;
use crate::stream::TraceStream;
use crate::time::TimeNs;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};

/// File magic of the binary store.
pub const MAGIC: [u8; 4] = *b"TLB!";

/// Current binary format version; bumped on any layout change, so a
/// reader never mis-parses a cache written by a different build.
pub const BIN_FORMAT_VERSION: u32 = 2;

/// Header length in bytes (magic + version + fingerprint + payload
/// length + checksum).
pub const HEADER_LEN: usize = 32;

/// Buffer size of the streamed writer and of the reader's read-ahead:
/// large enough that a read or write costs little more than its copy,
/// small enough to stay in cache while hashed.
pub const IO_CHUNK: usize = 128 * 1024;

/// FNV-1a 64 folded over 8-byte little-endian words (the final partial
/// word zero-padded, the input length mixed in last) — used both as the
/// source-content fingerprint and as the payload checksum. Word folding
/// keeps the multiply chain an eighth as long as byte-wise FNV, which
/// matters because every cached ingest fingerprints the full source
/// text and every binary load checksums the full payload.
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut lanes = LANES;
    let rest = fold_blocks(&mut lanes, bytes);
    finish_lanes(lanes, rest, bytes.len() as u64)
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Four independent lanes over interleaved words: FNV's multiply is a
/// serial dependency chain, so striping lets the CPU overlap four
/// multiplies instead of waiting on one.
const LANES: [u64; 4] = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];

/// Folds every whole 32-byte block of `bytes` into `lanes`, returning
/// the bytes after the last whole block.
fn fold_blocks<'b>(lanes: &mut [u64; 4], bytes: &'b [u8]) -> &'b [u8] {
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane ^= u64::from_le_bytes(block[j * 8..j * 8 + 8].try_into().expect("exact chunk"));
            *lane = lane.wrapping_mul(FNV_PRIME);
        }
    }
    blocks.remainder()
}

/// Combines the lanes, then folds the final partial block (`rest`, under
/// 32 bytes) word by word, and the total input length last.
fn finish_lanes(lanes: [u64; 4], rest: &[u8], len: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for lane in lanes {
        h ^= lane;
        h = h.wrapping_mul(FNV_PRIME);
    }
    let mut words = rest.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().expect("exact chunk"));
        h = h.wrapping_mul(FNV_PRIME);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h ^= u64::from_le_bytes(last);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // Length distinguishes inputs that differ only in trailing zeroes.
    h ^= len;
    h.wrapping_mul(FNV_PRIME)
}

/// [`fingerprint_bytes`] computed incrementally: feeding a byte string
/// in pieces of any sizes gives exactly the value of hashing it whole,
/// so a file can be fingerprinted through a fixed buffer.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    lanes: [u64; 4],
    /// Bytes of an incomplete 32-byte block, waiting for more input.
    pending: [u8; 32],
    filled: usize,
    len: u64,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

impl Fingerprinter {
    /// A fingerprinter that has seen no bytes.
    pub fn new() -> Fingerprinter {
        Fingerprinter {
            lanes: LANES,
            pending: [0; 32],
            filled: 0,
            len: 0,
        }
    }

    /// Appends `bytes` to the input.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.filled > 0 {
            let take = bytes.len().min(32 - self.filled);
            self.pending[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled < 32 {
                return;
            }
            let block = self.pending;
            fold_blocks(&mut self.lanes, &block);
            self.filled = 0;
        }
        let rest = fold_blocks(&mut self.lanes, bytes);
        self.pending[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    /// The fingerprint of everything fed so far.
    pub fn finish(&self) -> u64 {
        finish_lanes(self.lanes, &self.pending[..self.filled], self.len)
    }
}

/// A parsed `.tlb` header: everything before the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Fingerprint of the source the image was packed from.
    pub fingerprint: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// [`fingerprint_bytes`] of the payload.
    pub checksum: u64,
}

/// Parses the header at the start of `bytes`, which may hold more.
///
/// # Errors
///
/// [`BinReadError::BadMagic`] unless `bytes` starts with [`MAGIC`],
/// [`BinReadError::Truncated`] if they end inside the header, and
/// [`BinReadError::UnsupportedVersion`] for an intact header of another
/// format version — a cache layer can treat that one as stale rather
/// than corrupt.
pub fn parse_header(bytes: &[u8]) -> Result<Header, BinReadError> {
    if bytes.len() < 4 || bytes[0..4] != MAGIC {
        return Err(BinReadError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(BinReadError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != BIN_FORMAT_VERSION {
        return Err(BinReadError::UnsupportedVersion(version));
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    Ok(Header {
        fingerprint: word(8),
        payload_len: word(16),
        checksum: word(24),
    })
}

/// Reads just the source fingerprint out of a `.tlb` header, without
/// touching the payload — the cheap staleness check the cache layer
/// runs before committing to a full load. `None` if the bytes are not
/// a complete header of the supported version.
pub fn header_fingerprint(bytes: &[u8]) -> Option<u64> {
    parse_header(bytes).ok().map(|h| h.fingerprint)
}

/// Errors produced while reading the binary store. Every variant means
/// "this cache is unusable; re-ingest from text" — none are fatal to
/// the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinReadError {
    /// Not a `.tlb` file (wrong or incomplete magic).
    BadMagic,
    /// Written by a different format version.
    UnsupportedVersion(u32),
    /// Shorter than the header claims — a torn write.
    Truncated,
    /// Payload checksum mismatch — bit rot or a torn rewrite.
    ChecksumMismatch,
    /// Structurally invalid payload.
    Malformed(&'static str),
    /// The input failed with an I/O error other than ending early.
    Io(io::ErrorKind),
}

impl fmt::Display for BinReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinReadError::BadMagic => write!(f, "not a tracelens binary store"),
            BinReadError::UnsupportedVersion(v) => {
                write!(f, "unsupported binary format version {v}")
            }
            BinReadError::Truncated => write!(f, "binary store is truncated"),
            BinReadError::ChecksumMismatch => write!(f, "binary store checksum mismatch"),
            BinReadError::Malformed(what) => write!(f, "malformed binary store: {what}"),
            BinReadError::Io(kind) => write!(f, "cannot read binary store: {kind}"),
        }
    }
}

impl Error for BinReadError {}

/// Bytes per event in a stream block's six fixed-width columns: kind 1,
/// tid 4, pid 4, t 8, cost 8, stack 4.
const EVENT_BYTES: usize = 29;

/// Smallest stream block: id, event count and wtid count.
const STREAM_MIN_BYTES: u64 = 16;

fn kind_byte(kind: EventKind) -> u8 {
    match kind {
        EventKind::Running => 0,
        EventKind::Wait => 1,
        EventKind::Unwait => 2,
        EventKind::HardwareService => 3,
    }
}

/// The scenario-name table: every name once, in first-appearance order
/// over scenarios, then instances.
struct NameTable<'a> {
    names: Vec<&'a str>,
    index: HashMap<&'a str, u32>,
}

impl<'a> NameTable<'a> {
    fn of(ds: &'a Dataset) -> NameTable<'a> {
        let mut table = NameTable {
            names: Vec::new(),
            index: HashMap::new(),
        };
        for name in ds
            .scenarios
            .iter()
            .map(|s| s.name.as_str())
            .chain(ds.instances.iter().map(|i| i.scenario.as_str()))
        {
            table.index.entry(name).or_insert_with(|| {
                table.names.push(name);
                table.names.len() as u32 - 1
            });
        }
        table
    }

    fn index(&self, name: &str) -> [u8; 4] {
        self.index[name].to_le_bytes()
    }
}

/// Bytes of one stream block: id, event count, the six event columns,
/// the wtid bitmap, the wtid count and the wtid values.
fn stream_block_len(events: &[Event]) -> usize {
    let woken = events.iter().filter(|e| e.wtid.is_some()).count();
    4 + 8 + EVENT_BYTES * events.len() + events.len().div_ceil(8) + 4 + 4 * woken
}

/// The wtid presence bits of up to eight events, first event lowest.
fn wtid_bits(group: &[Event]) -> u8 {
    group
        .iter()
        .enumerate()
        .fold(0, |bits, (i, e)| bits | u8::from(e.wtid.is_some()) << i)
}

/// Payload writer through one fixed [`IO_CHUNK`] buffer: bytes are
/// staged, then hashed and written out whenever the buffer fills.
struct Encoder<W> {
    out: W,
    buf: Box<[u8]>,
    /// Staged bytes in `buf`.
    used: usize,
    hash: Fingerprinter,
    len: u64,
}

impl<W: Write> Encoder<W> {
    fn new(out: W) -> Encoder<W> {
        Encoder {
            out,
            buf: vec![0; IO_CHUNK].into_boxed_slice(),
            used: 0,
            hash: Fingerprinter::new(),
            len: 0,
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        let staged = &self.buf[..self.used];
        self.hash.update(staged);
        self.out.write_all(staged)?;
        self.len += self.used as u64;
        self.used = 0;
        Ok(())
    }

    /// Appends fixed-width items — one column, or a single value — a
    /// buffer's worth at a time.
    fn put<const N: usize>(&mut self, items: impl IntoIterator<Item = [u8; N]>) -> io::Result<()> {
        let mut items = items.into_iter();
        loop {
            if self.used + N > IO_CHUNK {
                self.flush()?;
            }
            let room = &mut self.buf[self.used..];
            let mut filled = 0;
            // `zip` stops at the first exhausted side without pulling an
            // item it cannot place.
            for (slot, item) in room.chunks_exact_mut(N).zip(&mut items) {
                slot.copy_from_slice(&item);
                filled += N;
            }
            self.used += filled;
            if self.used + N <= IO_CHUNK {
                return Ok(());
            }
        }
    }

    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.put([v.to_le_bytes()])
    }

    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.put([v.to_le_bytes()])
    }

    fn str(&mut self, s: &str) -> io::Result<()> {
        self.u32(s.len() as u32)?;
        self.put(s.bytes().map(|b| [b]))
    }

    /// One stream block, its columns over this stream's events only.
    fn stream(&mut self, stream: &TraceStream) -> io::Result<()> {
        let events = stream.events();
        self.u32(stream.id().0)?;
        self.u64(events.len() as u64)?;
        self.put(events.iter().map(|e| [kind_byte(e.kind)]))?;
        self.put(events.iter().map(|e| e.tid.0.to_le_bytes()))?;
        self.put(events.iter().map(|e| e.pid.0.to_le_bytes()))?;
        self.put(events.iter().map(|e| e.t.as_nanos().to_le_bytes()))?;
        self.put(events.iter().map(|e| e.cost.as_nanos().to_le_bytes()))?;
        self.put(events.iter().map(|e| e.stack.0.to_le_bytes()))?;
        self.put(events.chunks(8).map(|group| [wtid_bits(group)]))?;
        let woken = events.iter().filter_map(|e| e.wtid);
        self.u32(woken.clone().count() as u32)?;
        self.put(woken.map(|w| w.0.to_le_bytes()))
    }

    /// Writes out what is still staged; returns the payload length and
    /// checksum.
    fn finish(mut self) -> io::Result<(u64, u64)> {
        self.flush()?;
        Ok((self.len, self.hash.finish()))
    }
}

/// Forward-only payload reader. It reads its input in [`IO_CHUNK`]
/// pieces into one buffer, hashes each piece as it arrives and hands
/// out bounds-checked slices of it. The buffer grows only when a single
/// slice is longer than it, so at most to the largest stream block.
struct Source<R> {
    inner: R,
    buf: Vec<u8>,
    /// Decoded bytes end here in `buf`...
    pos: usize,
    /// ...and read bytes here.
    end: usize,
    /// Payload bytes not yet read from `inner`.
    unread: u64,
    hash: Fingerprinter,
}

impl<R: Read> Source<R> {
    fn new(inner: R, payload_len: u64) -> Source<R> {
        let chunk = usize::try_from(payload_len).map_or(IO_CHUNK, |len| len.min(IO_CHUNK));
        Source {
            inner,
            buf: vec![0; chunk],
            pos: 0,
            end: 0,
            unread: payload_len,
            hash: Fingerprinter::new(),
        }
    }

    /// Payload bytes not yet decoded.
    fn remaining(&self) -> u64 {
        self.unread + (self.end - self.pos) as u64
    }

    /// Reads and hashes more of the payload into `buf[end..]`, which must
    /// have room while payload bytes are unread.
    fn fill(&mut self) -> Result<(), BinReadError> {
        let room =
            (self.buf.len() - self.end).min(usize::try_from(self.unread).unwrap_or(usize::MAX));
        let got = loop {
            match self.inner.read(&mut self.buf[self.end..self.end + room]) {
                Ok(0) => return Err(BinReadError::Truncated),
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(BinReadError::Io(e.kind())),
            }
        };
        self.hash.update(&self.buf[self.end..self.end + got]);
        self.end += got;
        self.unread -= got as u64;
        Ok(())
    }

    /// The next `n` payload bytes, left unconsumed.
    fn peek(&mut self, n: usize) -> Result<&[u8], BinReadError> {
        if n as u64 > self.remaining() {
            return Err(BinReadError::Malformed("section overruns payload"));
        }
        if self.end - self.pos < n {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
            if self.buf.len() < n {
                self.buf.resize(n, 0);
            }
            while self.end < n {
                self.fill()?;
            }
        }
        Ok(&self.buf[self.pos..self.pos + n])
    }

    /// The next `n` payload bytes.
    fn take(&mut self, n: usize) -> Result<&[u8], BinReadError> {
        self.peek(n)?;
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    fn u32(&mut self) -> Result<u32, BinReadError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, BinReadError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self) -> Result<&str, BinReadError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| BinReadError::Malformed("invalid utf-8 in string table"))
    }

    /// Validates an element count against the bytes actually left, so a
    /// corrupt count cannot drive a huge allocation.
    fn counted(&self, count: u64, min_elem_bytes: u64) -> Result<usize, BinReadError> {
        if count.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(BinReadError::Malformed("count overruns payload"));
        }
        usize::try_from(count).map_err(|_| BinReadError::Malformed("count overflow"))
    }

    /// A `u32` element count, validated by [`Source::counted`].
    fn count(&mut self, min_elem_bytes: u64) -> Result<usize, BinReadError> {
        let count = self.u32()?;
        self.counted(count.into(), min_elem_bytes)
    }

    /// Reads and hashes whatever of the payload is still unread.
    fn drain(&mut self) -> Result<(), BinReadError> {
        while self.unread > 0 {
            self.pos = 0;
            self.end = 0;
            self.fill()?;
        }
        Ok(())
    }
}

impl Dataset {
    /// Serializes the data set into a complete `.tlb` image, in a buffer
    /// sized exactly up front.
    ///
    /// `fingerprint` identifies the source this image was packed from —
    /// conventionally [`fingerprint_bytes`] of the text serialization —
    /// and is what [`header_fingerprint`] reports for cache-staleness
    /// checks.
    pub fn to_binary(&self, fingerprint: u64) -> Vec<u8> {
        let names = NameTable::of(self);
        let mut image = io::Cursor::new(Vec::with_capacity(self.encoded_len(&names)));
        self.encode(fingerprint, &names, &mut image)
            .expect("writing to memory cannot fail");
        image.into_inner()
    }

    /// Writes the data set as a `.tlb` image at the current position of
    /// `out`, stream by stream through one fixed [`IO_CHUNK`] buffer,
    /// then seeks back to patch the payload length and checksum into the
    /// header and leaves `out` at the end of the image. The bytes are
    /// those of [`Dataset::to_binary`]; the whole image is never held in
    /// memory. Returns the image length in bytes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_binary<W: Write + Seek>(&self, fingerprint: u64, out: W) -> io::Result<u64> {
        self.encode(fingerprint, &NameTable::of(self), out)
    }

    fn encode<W: Write + Seek>(
        &self,
        fingerprint: u64,
        names: &NameTable<'_>,
        mut out: W,
    ) -> io::Result<u64> {
        let start = out.stream_position()?;
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(&MAGIC);
        header[4..8].copy_from_slice(&BIN_FORMAT_VERSION.to_le_bytes());
        header[8..16].copy_from_slice(&fingerprint.to_le_bytes());
        out.write_all(&header)?; // payload length and checksum patched below
        let mut enc = Encoder::new(&mut out);
        self.encode_payload(names, &mut enc)?;
        let (payload_len, checksum) = enc.finish()?;
        header[16..24].copy_from_slice(&payload_len.to_le_bytes());
        header[24..32].copy_from_slice(&checksum.to_le_bytes());
        let len = HEADER_LEN as u64 + payload_len;
        out.seek(SeekFrom::Start(start))?;
        out.write_all(&header)?;
        out.seek(SeekFrom::Start(start + len))?;
        Ok(len)
    }

    /// The exact length of the image [`Dataset::encode`] writes.
    fn encoded_len(&self, names: &NameTable<'_>) -> usize {
        let strings =
            |lens: &mut dyn Iterator<Item = usize>| lens.map(|len| 4 + len).sum::<usize>();
        let symbols = strings(&mut self.stacks.symbols().iter().map(|(_, s)| s.len()));
        let frames: usize = (0..self.stacks.len())
            .map(|id| self.stacks.frames(StackId(id as u32)).len())
            .sum();
        let streams: usize = self
            .streams
            .iter()
            .map(|s| stream_block_len(s.events()))
            .sum();
        HEADER_LEN
            + (4 + symbols)
            + (4 + 4 * self.stacks.len() + 8 + 4 * frames)
            + (4 + strings(&mut names.names.iter().map(|n| n.len())))
            + (4 + 20 * self.scenarios.len())
            + (4 + 8 + streams)
            + (4 + 28 * self.instances.len())
    }

    fn encode_payload<W: Write>(
        &self,
        names: &NameTable<'_>,
        enc: &mut Encoder<W>,
    ) -> io::Result<()> {
        // Symbols, in id order.
        enc.u32(self.stacks.symbols().len() as u32)?;
        for (_, text) in self.stacks.symbols().iter() {
            enc.str(text)?;
        }

        // Stacks: frame-count column, then the flat frame column.
        let stacks = || (0..self.stacks.len()).map(|id| self.stacks.frames(StackId(id as u32)));
        enc.u32(self.stacks.len() as u32)?;
        enc.put(stacks().map(|frames| (frames.len() as u32).to_le_bytes()))?;
        enc.u64(stacks().map(|frames| frames.len() as u64).sum())?;
        enc.put(stacks().flatten().map(|sym| sym.0.to_le_bytes()))?;

        enc.u32(names.names.len() as u32)?;
        for name in &names.names {
            enc.str(name)?;
        }

        // Scenarios: name-index, t_fast, t_slow columns.
        let scenarios = &self.scenarios;
        enc.u32(scenarios.len() as u32)?;
        enc.put(scenarios.iter().map(|s| names.index(s.name.as_str())))?;
        enc.put(
            scenarios
                .iter()
                .map(|s| s.thresholds.fast().as_nanos().to_le_bytes()),
        )?;
        enc.put(
            scenarios
                .iter()
                .map(|s| s.thresholds.slow().as_nanos().to_le_bytes()),
        )?;

        // Streams, one block each.
        enc.u32(self.streams.len() as u32)?;
        enc.u64(self.total_events() as u64)?;
        for stream in &self.streams {
            enc.stream(stream)?;
        }

        // Instances: trace, tid, t0, t1, name-index columns.
        let instances = &self.instances;
        enc.u32(instances.len() as u32)?;
        enc.put(instances.iter().map(|i| i.trace.0.to_le_bytes()))?;
        enc.put(instances.iter().map(|i| i.tid.0.to_le_bytes()))?;
        enc.put(instances.iter().map(|i| i.t0.as_nanos().to_le_bytes()))?;
        enc.put(instances.iter().map(|i| i.t1.as_nanos().to_le_bytes()))?;
        enc.put(instances.iter().map(|i| names.index(i.scenario.as_str())))
    }

    /// Reads a data set from a `.tlb` image, returning it together with
    /// the source fingerprint recorded in the header. A thin wrapper
    /// over [`Dataset::read_binary_from`].
    ///
    /// The reconstruction is exact: symbol ids, stack ids, stream order
    /// and event order all match the data set that was written, so
    /// `read_binary(to_binary(ds)).0` serializes byte-identically to
    /// `ds` via [`Dataset::write_text`].
    ///
    /// # Errors
    ///
    /// A [`BinReadError`] for any torn, corrupted, or version-skewed
    /// image; the caller is expected to fall back to text ingestion.
    pub fn read_binary(bytes: &[u8]) -> Result<(Dataset, u64), BinReadError> {
        Dataset::read_binary_from(bytes, bytes.len() as u64)
    }

    /// Reads a data set from the `len`-byte `.tlb` image that `input`
    /// holds, in one forward pass: the payload is read in [`IO_CHUNK`]
    /// pieces, hashed as it arrives and decoded stream block by stream
    /// block, so no more than the largest block is buffered. Returns the
    /// data set and the source fingerprint recorded in the header.
    ///
    /// Errors take precedence in this order: a bad magic, short header
    /// or other version; then a `len` that disagrees with the header's
    /// payload length; then a payload checksum mismatch, which beats any
    /// decode error (on one, the rest of the payload is read and hashed
    /// before the reader decides).
    ///
    /// # Errors
    ///
    /// A [`BinReadError`] for any torn, corrupted, or version-skewed
    /// image, or for an input that fails to read.
    pub fn read_binary_from<R: Read>(
        mut input: R,
        len: u64,
    ) -> Result<(Dataset, u64), BinReadError> {
        let mut head = [0u8; HEADER_LEN];
        let head = &mut head[..len.min(HEADER_LEN as u64) as usize];
        input.read_exact(head).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => BinReadError::Truncated,
            kind => BinReadError::Io(kind),
        })?;
        let header = parse_header(head)?;
        let body = len - HEADER_LEN as u64;
        if body < header.payload_len {
            return Err(BinReadError::Truncated);
        }
        if body > header.payload_len {
            return Err(BinReadError::Malformed("trailing bytes after payload"));
        }
        let mut src = Source::new(input, header.payload_len);
        let decoded = decode_payload(&mut src).and_then(|ds| match src.remaining() {
            0 => Ok(ds),
            _ => Err(BinReadError::Malformed("trailing bytes in payload")),
        });
        // Damage can make decoding fail anywhere: hash the rest, so that
        // it is reported as damage and not as the error it happened to
        // cause.
        src.drain()?;
        if src.hash.finish() != header.checksum {
            return Err(BinReadError::ChecksumMismatch);
        }
        Ok((decoded?, header.fingerprint))
    }
}

/// Decodes the payload sections in file order.
fn decode_payload<R: Read>(src: &mut Source<R>) -> Result<Dataset, BinReadError> {
    let mut ds = Dataset::new();

    // Symbols.
    let sym_count = src.count(4)?;
    for i in 0..sym_count {
        let sym = ds.stacks.intern_frame(src.str()?);
        if sym.0 as usize != i {
            return Err(BinReadError::Malformed("duplicate symbol in table"));
        }
    }

    // Stacks.
    let stack_count = src.count(4)?;
    let mut frame_counts = Vec::with_capacity(stack_count);
    for _ in 0..stack_count {
        frame_counts.push(src.u32()?);
    }
    let total_frames = src.u64()?;
    if total_frames != frame_counts.iter().map(|&c| u64::from(c)).sum::<u64>() {
        return Err(BinReadError::Malformed("frame total mismatch"));
    }
    src.counted(total_frames, 4)?;
    let mut frames = Vec::new();
    for (i, &count) in frame_counts.iter().enumerate() {
        frames.clear();
        for word in src.take(4 * count as usize)?.chunks_exact(4) {
            let sym = u32::from_le_bytes(word.try_into().expect("4 bytes"));
            if sym as usize >= sym_count {
                return Err(BinReadError::Malformed("frame references unknown symbol"));
            }
            frames.push(Symbol(sym));
        }
        let id = ds.stacks.intern(&frames);
        if id.0 as usize != i {
            return Err(BinReadError::Malformed("duplicate stack in table"));
        }
    }

    // Scenario-name table.
    let name_count = src.count(4)?;
    let mut names = Vec::with_capacity(name_count);
    for _ in 0..name_count {
        names.push(ScenarioName::new(src.str()?));
    }
    let name_at = |idx: u32| -> Result<ScenarioName, BinReadError> {
        names
            .get(idx as usize)
            .copied()
            .ok_or(BinReadError::Malformed("scenario name index out of range"))
    };

    // Scenarios.
    let scen_count = src.count(4)?;
    let mut scen_names = Vec::with_capacity(scen_count);
    for _ in 0..scen_count {
        scen_names.push(name_at(src.u32()?)?);
    }
    let mut fasts = Vec::with_capacity(scen_count);
    for _ in 0..scen_count {
        fasts.push(src.u64()?);
    }
    for (name, fast) in scen_names.into_iter().zip(fasts) {
        let slow = src.u64()?;
        if fast >= slow {
            return Err(BinReadError::Malformed("scenario thresholds inverted"));
        }
        ds.scenarios.push(Scenario::new(
            name,
            Thresholds::new(TimeNs(fast), TimeNs(slow)),
        ));
    }

    // Streams, one block each.
    let stream_count = src.count(STREAM_MIN_BYTES)?;
    let total_events = src.u64()?;
    src.counted(total_events, EVENT_BYTES as u64)?;
    let mut events_read = 0u64;
    ds.streams.reserve_exact(stream_count);
    for _ in 0..stream_count {
        let id = TraceId(src.u32()?);
        let len = src.u64()?;
        let len = src.counted(len, EVENT_BYTES as u64)?;
        events_read += len as u64;
        let columns = EVENT_BYTES * len + len.div_ceil(8);
        let woken: [u8; 4] = src.peek(columns + 4)?[columns..]
            .try_into()
            .expect("4 bytes");
        let woken = u32::from_le_bytes(woken) as usize;
        let events = decode_events(src.take(columns + 4 + 4 * woken)?, len, woken)?;
        // Order is preserved verbatim (no re-sort), so even streams that
        // would fail validation round-trip unchanged.
        ds.streams
            .push(TraceStream::from_unchecked_parts(id, events));
    }
    if events_read != total_events {
        return Err(BinReadError::Malformed("event total mismatch"));
    }

    // Instances.
    let inst_count = src.count(4)?;
    let mut traces = Vec::with_capacity(inst_count);
    for _ in 0..inst_count {
        traces.push(src.u32()?);
    }
    let mut tids = Vec::with_capacity(inst_count);
    for _ in 0..inst_count {
        tids.push(src.u32()?);
    }
    let mut t0s = Vec::with_capacity(inst_count);
    for _ in 0..inst_count {
        t0s.push(src.u64()?);
    }
    let mut t1s = Vec::with_capacity(inst_count);
    for _ in 0..inst_count {
        t1s.push(src.u64()?);
    }
    ds.instances.reserve_exact(inst_count);
    for ((trace, tid), (t0, t1)) in traces.into_iter().zip(tids).zip(t0s.into_iter().zip(t1s)) {
        let scenario = name_at(src.u32()?)?;
        ds.instances.push(ScenarioInstance {
            trace: TraceId(trace),
            scenario,
            tid: ThreadId(tid),
            t0: TimeNs(t0),
            t1: TimeNs(t1),
        });
    }
    Ok(ds)
}

/// Decodes one stream block's event columns (`len` events, `woken` of
/// them with a wtid). The kind column and the wtid bitmap are checked
/// first, so the per-event loop has no error branches.
fn decode_events(block: &[u8], len: usize, woken: usize) -> Result<Vec<Event>, BinReadError> {
    let (kinds, rest) = block.split_at(len);
    let (tids, rest) = rest.split_at(4 * len);
    let (pids, rest) = rest.split_at(4 * len);
    let (ts, rest) = rest.split_at(8 * len);
    let (costs, rest) = rest.split_at(8 * len);
    let (stacks, rest) = rest.split_at(4 * len);
    let (bitmap, rest) = rest.split_at(len.div_ceil(8));
    let wtids = &rest[4..];

    if kinds.iter().any(|&b| b > 3) {
        return Err(BinReadError::Malformed("bad event kind"));
    }
    let set_bits: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
    if set_bits != woken {
        return Err(BinReadError::Malformed("wtid bitmap/column mismatch"));
    }
    if !len.is_multiple_of(8) && bitmap.last().is_some_and(|&last| last >> (len % 8) != 0) {
        return Err(BinReadError::Malformed("wtid bitmap tail bits set"));
    }

    fn next_u32(it: &mut std::slice::ChunksExact<'_, u8>) -> u32 {
        u32::from_le_bytes(
            it.next()
                .expect("sized column")
                .try_into()
                .expect("4 bytes"),
        )
    }
    fn next_u64(it: &mut std::slice::ChunksExact<'_, u8>) -> u64 {
        u64::from_le_bytes(
            it.next()
                .expect("sized column")
                .try_into()
                .expect("8 bytes"),
        )
    }
    const KINDS: [EventKind; 4] = [
        EventKind::Running,
        EventKind::Wait,
        EventKind::Unwait,
        EventKind::HardwareService,
    ];
    let mut tid_it = tids.chunks_exact(4);
    let mut pid_it = pids.chunks_exact(4);
    let mut t_it = ts.chunks_exact(8);
    let mut cost_it = costs.chunks_exact(8);
    let mut stack_it = stacks.chunks_exact(4);
    let mut wtid_it = wtids.chunks_exact(4);
    let mut events = Vec::with_capacity(len);
    events.extend(kinds.iter().enumerate().map(|(i, &kind)| {
        let wtid = (bitmap[i / 8] & (1 << (i % 8)) != 0).then(|| ThreadId(next_u32(&mut wtid_it)));
        Event {
            kind: KINDS[(kind & 3) as usize],
            tid: ThreadId(next_u32(&mut tid_it)),
            pid: ProcessId(next_u32(&mut pid_it)),
            t: TimeNs(next_u64(&mut t_it)),
            cost: TimeNs(next_u64(&mut cost_it)),
            stack: StackId(next_u32(&mut stack_it)),
            wtid,
        }
    }));
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::TraceStreamBuilder;

    fn sample() -> Dataset {
        let mut ds = Dataset::new();
        ds.scenarios.push(Scenario::new(
            ScenarioName::new("S"),
            Thresholds::new(TimeNs(100), TimeNs(200)),
        ));
        let a = ds.stacks.intern_symbols(&["app!Main", "fs.sys!Read"]);
        let b = ds.stacks.intern_symbols(&["app!Main"]);
        let mut tb = TraceStreamBuilder::new(0);
        tb.push_running(ThreadId(1), TimeNs(0), TimeNs(10), a);
        tb.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, b);
        tb.push_unwait(ThreadId(2), ThreadId(1), TimeNs(30), a);
        tb.push_hardware(ThreadId(3), TimeNs(12), TimeNs(15), b);
        ds.streams.push(tb.finish().unwrap());
        let mut tb = TraceStreamBuilder::new(1);
        tb.push_running(ThreadId(5), TimeNs(3), TimeNs(7), b);
        ds.streams.push(tb.finish().unwrap());
        ds.instances.push(ScenarioInstance {
            trace: TraceId(0),
            scenario: ScenarioName::new("S"),
            tid: ThreadId(1),
            t0: TimeNs(0),
            t1: TimeNs(40),
        });
        ds.instances.push(ScenarioInstance {
            trace: TraceId(1),
            scenario: ScenarioName::new("Orphan"),
            tid: ThreadId(5),
            t0: TimeNs(3),
            t1: TimeNs(9),
        });
        ds
    }

    /// [`sample`] plus a stream whose block outgrows [`IO_CHUNK`], so the
    /// writer flushes mid-column and the reader grows its buffer.
    fn large() -> Dataset {
        let mut ds = sample();
        let stack = ds.stacks.intern_symbols(&["app!Main", "net.sys!Send"]);
        let mut tb = TraceStreamBuilder::new(2);
        for i in 0..12_000u32 {
            let (tid, t) = (ThreadId(10 + i % 5), TimeNs(u64::from(i) * 10));
            match i % 3 {
                0 => tb.push_running(tid, t, TimeNs(5), stack),
                1 => tb.push_wait(tid, t, TimeNs(3), stack),
                _ => tb.push_unwait(tid, ThreadId(10 + (i + 1) % 5), t, stack),
            };
        }
        ds.streams.push(tb.finish().unwrap());
        ds
    }

    fn text(ds: &Dataset) -> Vec<u8> {
        let mut out = Vec::new();
        ds.write_text(&mut out).unwrap();
        out
    }

    #[test]
    fn binary_round_trip_is_text_byte_identical() {
        let ds = sample();
        let src = text(&ds);
        let image = ds.to_binary(fingerprint_bytes(&src));
        let (back, fp) = Dataset::read_binary(&image).unwrap();
        assert_eq!(fp, fingerprint_bytes(&src));
        assert_eq!(text(&back), src);
        assert_eq!(back.instances, ds.instances);
    }

    #[test]
    fn empty_dataset_round_trips() {
        let ds = Dataset::new();
        let image = ds.to_binary(7);
        let (back, fp) = Dataset::read_binary(&image).unwrap();
        assert_eq!(fp, 7);
        assert_eq!(text(&back), text(&ds));
    }

    #[test]
    fn corrupt_dataset_round_trips_without_laundering() {
        // Unsorted events and a dangling stack id must survive a pack /
        // load cycle verbatim — the cache must never hide corruption.
        let mut ds = sample();
        let mut events: Vec<Event> = ds.streams[0].events().to_vec();
        events.swap(0, 3);
        events[1].stack = StackId(999);
        ds.streams[0] = TraceStream::from_unchecked_parts(TraceId(0), events);
        let image = ds.to_binary(1);
        let (back, _) = Dataset::read_binary(&image).unwrap();
        assert_eq!(back.streams[0].events(), ds.streams[0].events());
        assert_eq!(back.streams[0].events()[1].stack, StackId(999));
    }

    #[test]
    fn fingerprinter_matches_one_shot_hash_for_any_chunking() {
        let bytes: Vec<u8> = (0..=300u32).map(|i| (i * 131 % 251) as u8).collect();
        for len in 0..=300 {
            let input = &bytes[..len];
            let whole = fingerprint_bytes(input);
            for chunk in [1, 3, 8, 31, 32, 33, 100] {
                let mut f = Fingerprinter::new();
                for piece in input.chunks(chunk) {
                    f.update(piece);
                }
                assert_eq!(f.finish(), whole, "len {len}, chunks of {chunk}");
            }
        }
        // Pinned values: the fingerprint is stored in every `.tlb` header.
        assert_eq!(fingerprint_bytes(b""), 0xf1fc_e322_bc1d_af2f);
        assert_eq!(fingerprint_bytes(&bytes), 0x66c6_69de_069d_9ac9);
    }

    #[test]
    fn header_fingerprint_is_cheap_and_exact() {
        let ds = sample();
        let image = ds.to_binary(0xDEAD_BEEF);
        assert_eq!(header_fingerprint(&image), Some(0xDEAD_BEEF));
        assert_eq!(header_fingerprint(&image[..HEADER_LEN - 1]), None);
        assert_eq!(header_fingerprint(b"not a tlb"), None);
    }

    #[test]
    fn torn_image_fails_at_every_offset() {
        let image = sample().to_binary(42);
        for cut in 0..image.len() {
            let e = Dataset::read_binary(&image[..cut]).unwrap_err();
            assert!(
                matches!(e, BinReadError::BadMagic | BinReadError::Truncated),
                "cut at {cut}: {e:?}"
            );
        }
        assert!(Dataset::read_binary(&image).is_ok());
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let image = sample().to_binary(42);
        // Flip one byte in every payload region (step keeps it fast).
        for pos in (HEADER_LEN..image.len()).step_by(7) {
            let mut bad = image.clone();
            bad[pos] ^= 0x40;
            assert_eq!(
                Dataset::read_binary(&bad).unwrap_err(),
                BinReadError::ChecksumMismatch,
                "flip at {pos}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut image = sample().to_binary(42);
        image.push(0);
        assert!(matches!(
            Dataset::read_binary(&image).unwrap_err(),
            BinReadError::Malformed(_)
        ));
    }

    #[test]
    fn image_is_sized_exactly() {
        for ds in [sample(), Dataset::new()] {
            let image = ds.to_binary(3);
            assert_eq!(image.capacity(), image.len());
        }
    }

    #[test]
    fn streamed_image_is_byte_identical_to_to_binary() {
        for ds in [sample(), large()] {
            let image = ds.to_binary(42);
            // Written after a prefix: the header is patched in place.
            let mut out = io::Cursor::new(b"prefix".to_vec());
            out.seek(SeekFrom::End(0)).unwrap();
            let len = ds.write_binary(42, &mut out).unwrap();
            assert_eq!(len, image.len() as u64);
            assert_eq!(out.position(), 6 + len);
            assert!(out.get_ref()[6..] == image[..]);
        }
    }

    #[test]
    fn image_larger_than_the_buffers_round_trips() {
        let ds = large();
        let image = ds.to_binary(9);
        assert!(image.len() > 2 * IO_CHUNK);
        let (back, _) = Dataset::read_binary(&image).unwrap();
        assert!(text(&back) == text(&ds));
        assert_eq!(back.streams[2].events(), ds.streams[2].events());
    }

    /// Hands out at most `piece` bytes per `read`.
    struct Pieces<'a> {
        bytes: &'a [u8],
        piece: usize,
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.piece).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn piecewise_reads_decode_like_a_whole_slice() {
        for ds in [sample(), large()] {
            let image = ds.to_binary(42);
            let (whole, _) = Dataset::read_binary(&image).unwrap();
            for piece in [1, 3, 7] {
                let input = Pieces {
                    bytes: &image,
                    piece,
                };
                let (back, fp) = Dataset::read_binary_from(input, image.len() as u64).unwrap();
                assert_eq!(fp, 42);
                assert!(text(&back) == text(&whole), "pieces of {piece}");
            }
        }
    }

    /// Fails every read.
    struct Broken;

    impl Read for Broken {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Err(io::ErrorKind::PermissionDenied.into())
        }
    }

    #[test]
    fn input_that_ends_or_fails_early_is_rejected() {
        let image = sample().to_binary(42);
        let len = image.len() as u64;
        let short = &image[..image.len() - 5];
        assert_eq!(
            Dataset::read_binary_from(short, len).unwrap_err(),
            BinReadError::Truncated
        );
        let denied = BinReadError::Io(io::ErrorKind::PermissionDenied);
        assert_eq!(Dataset::read_binary_from(Broken, len).unwrap_err(), denied);
        let header_then_broken = image[..HEADER_LEN].chain(Broken);
        assert_eq!(
            Dataset::read_binary_from(header_then_broken, len).unwrap_err(),
            denied
        );
    }

    #[test]
    fn checksum_mismatch_beats_decode_errors_and_only_them() {
        let image = sample().to_binary(42);
        // The first event's kind byte: after the symbol, stack, name and
        // scenario tables, the stream count and total, and the first
        // stream's id and length.
        let ds = sample();
        let names = NameTable::of(&ds);
        let tables = ds.encoded_len(&names)
            - ds.streams
                .iter()
                .map(|s| stream_block_len(s.events()))
                .sum::<usize>()
            - (4 + 28 * ds.instances.len());
        let kind_at = tables + 12;
        assert_eq!(image[kind_at], kind_byte(ds.streams[0].events()[0].kind));

        let mut bad = image.clone();
        bad[kind_at] = 9;
        assert_eq!(
            Dataset::read_binary(&bad).unwrap_err(),
            BinReadError::ChecksumMismatch
        );
        // With a checksum that matches the damage, the decode error shows.
        let checksum = fingerprint_bytes(&bad[HEADER_LEN..]);
        bad[24..32].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            Dataset::read_binary(&bad).unwrap_err(),
            BinReadError::Malformed("bad event kind")
        );
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut image = sample().to_binary(42);
        image[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            Dataset::read_binary(&image).unwrap_err(),
            BinReadError::UnsupportedVersion(99)
        );
        assert_eq!(header_fingerprint(&image), None);
    }
}
