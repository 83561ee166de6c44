//! The trace store: fast paths for getting a [`Dataset`] off disk.
//!
//! Three ingest modes, fastest first:
//!
//! 1. **Binary cache** — a `.tlb` columnar image next to the text file
//!    (see [`tracelens_model::binio`]). Loaded only when its recorded
//!    fingerprint matches the current text bytes; anything else (torn,
//!    corrupt, stale, another format version) falls back to the text
//!    parse and is counted, never fatal. Both directions stream: a hit
//!    decodes the cache from one open handle in one forward pass, and
//!    [`write_cache`] encodes into a temp file through a fixed buffer,
//!    so no whole `.tlb` image is ever held in memory.
//! 2. **Sharded-parallel text** — the input is split on `!trace`
//!    boundaries and the shards parsed on `tracelens-pool` workers. The
//!    merged result is byte-identical (via `write_text`) to the serial
//!    parse at every job count; any shard irregularity (including
//!    metadata interleaved between traces, which shards cannot see)
//!    falls back to the serial parse so error messages are identical
//!    too.
//! 3. **Serial text** — [`Dataset::read_text_bytes`], the reference
//!    semantics.
//!
//! Every ingest is instrumented under the `ingest` telemetry stage
//! (span `ingest`, counters `ingest.bytes` / `ingest.events` /
//! `ingest.shards` / `ingest.cache_hits` / `ingest.cache_fallbacks`),
//! and the returned [`IngestReport`] carries the transport counters
//! (`io_retries`, cache fallback) that `--sanitize` surfaces through
//! `SanitizeReport`.

use std::fmt;
use std::fs::File;
use std::io::{self, Read, Seek};
use std::path::{Path, PathBuf};
use tracelens_model::textio::{ReadError, RetryPolicy, RetryingReader};
use tracelens_model::{binio, BinReadError, Dataset};
use tracelens_obs::{stage, Telemetry};
use tracelens_pool::Pool;

/// Which path produced the data set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestSource {
    /// Serial text parse (the reference path).
    TextSerial,
    /// Sharded text parse on pool workers, deterministically merged.
    TextParallel,
    /// Loaded from a fingerprint-matching `.tlb` cache.
    BinaryCache,
}

impl fmt::Display for IngestSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IngestSource::TextSerial => "text (serial)",
            IngestSource::TextParallel => "text (parallel)",
            IngestSource::BinaryCache => "binary cache",
        })
    }
}

/// Why a requested `.tlb` cache was not used. Transport-level: the
/// resulting data set is the same either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheFallback {
    /// No cache file next to the input yet.
    Missing,
    /// The cache's fingerprint does not match the current text (the
    /// input changed since it was packed), or its intact header names
    /// another format version. It is repacked, not quarantined.
    Stale,
    /// The cache failed to load: torn write, bit rot, bad magic, or an
    /// unreadable file.
    Corrupt,
}

impl fmt::Display for CacheFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheFallback::Missing => "missing",
            CacheFallback::Stale => "stale",
            CacheFallback::Corrupt => "corrupt",
        })
    }
}

/// How one data set was ingested: the path taken, the sizes moved, and
/// the transport incidents absorbed along the way.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Which path produced the data set.
    pub source: IngestSource,
    /// Bytes read from the source (text bytes, or `.tlb` bytes when the
    /// cache was used).
    pub bytes: usize,
    /// Events in the resulting data set.
    pub events: usize,
    /// Transient I/O errors absorbed by retried reads.
    pub io_retries: usize,
    /// Why the cache was skipped, when `--cache` asked for one.
    pub cache_fallback: Option<CacheFallback>,
    /// Whether a fresh `.tlb` cache was written after a text parse.
    pub cache_written: bool,
    /// Whether a corrupt `.tlb` cache was preserved as
    /// `<name>.tlb.quarantined` for post-mortem instead of being
    /// silently repacked over.
    pub cache_quarantined: bool,
}

impl IngestReport {
    fn new(source: IngestSource, bytes: usize, ds: &Dataset) -> IngestReport {
        IngestReport {
            source,
            bytes,
            events: ds.total_events(),
            io_retries: 0,
            cache_fallback: None,
            cache_written: false,
            cache_quarantined: false,
        }
    }
}

/// Parses in-memory `.tlt` text, sharded across `pool`'s workers when
/// the input and the pool allow it.
///
/// The result is byte-identical (via `write_text`) to
/// [`Dataset::read_text_bytes`] at every job count. Whenever the
/// sharded path cannot reproduce the serial parse exactly — metadata
/// interleaved between traces, or any shard error — the whole input is
/// re-parsed serially, so success *and* failure modes match the serial
/// parser's.
///
/// # Errors
///
/// The serial parser's [`ReadError`] for malformed input.
pub fn ingest_bytes(
    bytes: &[u8],
    pool: &Pool,
    telemetry: &Telemetry,
) -> Result<(Dataset, IngestSource), ReadError> {
    let _span = telemetry.span(stage::INGEST);
    telemetry.count("ingest.bytes", bytes.len() as u64);
    if pool.is_parallel() {
        if let Some(ds) = try_parallel(bytes, pool, telemetry) {
            telemetry.count("ingest.events", ds.total_events() as u64);
            return Ok((ds, IngestSource::TextParallel));
        }
    }
    let ds = Dataset::read_text_bytes(bytes)?;
    telemetry.count("ingest.events", ds.total_events() as u64);
    Ok((ds, IngestSource::TextSerial))
}

/// The sharded parse; `None` means "use the serial parser" (single
/// shard, non-canonical layout, or any shard/merge error — the serial
/// pass then produces the authoritative result or error).
fn try_parallel(bytes: &[u8], pool: &Pool, telemetry: &Telemetry) -> Option<Dataset> {
    let plan = Dataset::plan_text_shards(bytes).ok()?;
    if plan.shards().len() < 2 {
        return None;
    }
    telemetry.count("ingest.shards", plan.shards().len() as u64);
    let outputs = pool.map(plan.shards(), |_, shard| plan.parse_shard(shard));
    let mut parsed = Vec::with_capacity(outputs.len());
    for out in outputs {
        parsed.push(out.ok()?);
    }
    plan.merge(parsed).ok()
}

/// Reads a data set from an arbitrary reader (e.g. stdin), retrying
/// transient I/O errors, then parsing via [`ingest_bytes`]. No cache is
/// consulted — streams have no adjacent path to cache against.
///
/// # Errors
///
/// I/O errors from the reader and parse errors, both as [`ReadError`].
pub fn ingest_reader<R: Read>(
    input: R,
    pool: &Pool,
    telemetry: &Telemetry,
) -> Result<(Dataset, IngestReport), ReadError> {
    let mut reader = RetryingReader::new(input, RetryPolicy::default());
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes).map_err(ReadError::Io)?;
    let io_retries = reader.retries();
    let (ds, source) = ingest_bytes(&bytes, pool, telemetry)?;
    let mut report = IngestReport::new(source, bytes.len(), &ds);
    report.io_retries = io_retries;
    Ok((ds, report))
}

/// Sharded-parallel ingest with the retry plane on *every* read: the
/// planning pass reads the input once through a [`RetryingReader`],
/// then each shard worker re-opens the source via `open` and re-reads
/// exactly its own byte range ([`tracelens_model::textio::Shard::byte_range`])
/// through an independent [`RetryingReader`] under the same policy —
/// the parallel counterpart of `Dataset::read_text_retrying`, which
/// only guards the serial path.
///
/// The result is byte-identical (via `write_text`) to the serial parse
/// at every job count, and per-shard retry counts sum into
/// [`IngestReport::io_retries`] deterministically: each shard's read
/// schedule depends only on its byte range, not on worker scheduling.
/// Any shard irregularity — non-canonical layout, exhausted retries, a
/// source that yields different bytes on re-read — falls back to the
/// serial parse of the planning pass's bytes, so success and failure
/// modes match the serial parser's.
///
/// # Errors
///
/// I/O errors from the planning read and parse errors, both as
/// [`ReadError`].
pub fn ingest_reader_sharded<R, F>(
    open: F,
    policy: RetryPolicy,
    pool: &Pool,
    telemetry: &Telemetry,
) -> Result<(Dataset, IngestReport), ReadError>
where
    R: Read,
    F: Fn() -> io::Result<R> + Sync,
{
    let _span = telemetry.span(stage::INGEST);
    let mut reader = RetryingReader::new(open().map_err(ReadError::Io)?, policy);
    let mut text = Vec::new();
    reader.read_to_end(&mut text).map_err(ReadError::Io)?;
    let plan_retries = reader.retries();
    telemetry.count("ingest.bytes", text.len() as u64);

    let serial = |text: &[u8]| -> Result<(Dataset, IngestReport), ReadError> {
        let ds = Dataset::read_text_bytes(text)?;
        telemetry.count("ingest.events", ds.total_events() as u64);
        let mut report = IngestReport::new(IngestSource::TextSerial, text.len(), &ds);
        report.io_retries = plan_retries;
        Ok((ds, report))
    };

    if !pool.is_parallel() {
        return serial(&text);
    }
    let Ok(plan) = Dataset::plan_text_shards(&text) else {
        return serial(&text);
    };
    if plan.shards().len() < 2 {
        return serial(&text);
    }
    telemetry.count("ingest.shards", plan.shards().len() as u64);

    let outputs = pool.map(plan.shards(), |_, shard| {
        let source = open().map_err(|_| ())?;
        let mut reader = RetryingReader::new(source, policy);
        let range = shard.byte_range();
        skip_exact(&mut reader, range.start).map_err(|_| ())?;
        let mut buf = vec![0u8; range.len()];
        reader.read_exact(&mut buf).map_err(|_| ())?;
        let out = plan.parse_shard_bytes(shard, &buf).map_err(|_| ())?;
        Ok::<_, ()>((out, reader.retries()))
    });
    let mut parsed = Vec::with_capacity(outputs.len());
    let mut shard_retries = 0usize;
    for out in outputs {
        match out {
            Ok((o, retries)) => {
                shard_retries += retries;
                parsed.push(o);
            }
            Err(()) => return serial(&text),
        }
    }
    match plan.merge(parsed) {
        Ok(ds) => {
            telemetry.count("ingest.events", ds.total_events() as u64);
            let mut report = IngestReport::new(IngestSource::TextParallel, text.len(), &ds);
            report.io_retries = plan_retries + shard_retries;
            Ok((ds, report))
        }
        Err(_) => serial(&text),
    }
}

/// Reads and discards exactly `n` bytes with a fixed chunk size, so the
/// per-shard read schedule (and therefore any injected-fault pattern)
/// is deterministic in the shard's byte range alone.
fn skip_exact<R: Read>(reader: &mut R, mut n: usize) -> io::Result<()> {
    let mut buf = [0u8; 16 * 1024];
    while n > 0 {
        let take = n.min(buf.len());
        match reader.read(&mut buf[..take])? {
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "short read while seeking to shard",
                ))
            }
            got => n -= got,
        }
    }
    Ok(())
}

/// Reads a whole file through a [`RetryingReader`], returning the bytes
/// and the retries it took. The buffer is sized from the file's metadata
/// up front (one spare byte lets the final read see end-of-file without
/// growing it), so a large corpus is never copied into a buffer of
/// twice its size; without metadata the buffer grows as it reads.
fn read_file<R: Read>(
    path: &Path,
    open: impl Fn(&Path) -> io::Result<R>,
) -> io::Result<(Vec<u8>, usize)> {
    let expected = std::fs::metadata(path)
        .ok()
        .and_then(|m| usize::try_from(m.len()).ok())
        .map_or(0, |len| len.saturating_add(1));
    let mut reader = RetryingReader::new(open(path)?, RetryPolicy::default());
    let mut text = Vec::with_capacity(expected);
    reader.read_to_end(&mut text)?;
    Ok((text, reader.retries()))
}

/// [`binio::fingerprint_bytes`] of a file's contents and the retries it
/// took, read through a [`RetryingReader`] into one fixed buffer: the
/// file is never held in memory.
fn fingerprint_file<R: Read>(
    path: &Path,
    open: impl Fn(&Path) -> io::Result<R>,
) -> io::Result<(u64, usize)> {
    let mut reader = RetryingReader::new(open(path)?, RetryPolicy::default());
    let mut fingerprint = binio::Fingerprinter::new();
    let mut buf = vec![0u8; binio::IO_CHUNK];
    loop {
        match reader.read(&mut buf)? {
            0 => return Ok((fingerprint.finish(), reader.retries())),
            n => fingerprint.update(&buf[..n]),
        }
    }
}

/// Reads a `.tlt` file, optionally through its `.tlb` binary cache.
///
/// With `cache` set, the sibling cache path ([`cache_path_for`]) is
/// consulted first. Its header names the fingerprint of the text it was
/// packed from; only when the header is intact is the text hashed — in
/// a fixed buffer, without holding it — and a match decodes the cache
/// from the same open handle, verifying its payload checksum as it
/// reads. A missing, stale, or corrupt cache is counted in the report
/// and the text is read and parsed instead. The text is then hashed and
/// dropped, and a fresh cache, stamped with the fingerprint of the bytes
/// actually parsed, is streamed out by [`write_cache`] (best-effort) so
/// the next read hits.
///
/// # Errors
///
/// I/O errors opening/reading the text file and parse errors, both as
/// [`ReadError`]. Cache problems are never errors.
pub fn ingest_path(
    path: &Path,
    cache: bool,
    pool: &Pool,
    telemetry: &Telemetry,
) -> Result<(Dataset, IngestReport), ReadError> {
    ingest_path_via(path, cache, pool, telemetry, |p: &Path| File::open(p))
}

/// [`ingest_path`] reading the text through `open`, the seam the tests
/// inject transient read faults through.
fn ingest_path_via<R: Read>(
    path: &Path,
    cache: bool,
    pool: &Pool,
    telemetry: &Telemetry,
    open: impl Fn(&Path) -> io::Result<R>,
) -> Result<(Dataset, IngestReport), ReadError> {
    let cache_path = cache_path_for(path);
    let mut io_retries = 0;
    let mut fallback = None;
    if cache {
        match probe_cache(path, &cache_path, &open, &mut io_retries, telemetry)? {
            Ok((ds, cache_bytes)) => {
                telemetry.count("ingest.cache_hits", 1);
                telemetry.count("ingest.events", ds.total_events() as u64);
                let mut report = IngestReport::new(IngestSource::BinaryCache, cache_bytes, &ds);
                report.io_retries = io_retries;
                return Ok((ds, report));
            }
            Err(reason) => fallback = Some(reason),
        }
    }

    let (text, retries) = read_file(path, &open).map_err(ReadError::Io)?;
    let (ds, source) = ingest_bytes(&text, pool, telemetry)?;
    let mut report = IngestReport::new(source, text.len(), &ds);
    report.io_retries = io_retries + retries;
    if !cache {
        return Ok((ds, report));
    }
    let fingerprint = binio::fingerprint_bytes(&text);
    drop(text);
    report.cache_fallback = fallback;
    telemetry.count("ingest.cache_fallbacks", 1);
    if fallback == Some(CacheFallback::Corrupt) {
        report.cache_quarantined = quarantine_cache(&cache_path);
        if report.cache_quarantined {
            telemetry.count("ingest.cache_quarantined", 1);
        }
    }
    report.cache_written = write_cache(&cache_path, &ds, fingerprint).is_ok();
    Ok((ds, report))
}

/// Where a corrupt cache is preserved: `corpus.tlb` →
/// `corpus.tlb.quarantined`.
pub fn quarantined_cache_path(cache_path: &Path) -> PathBuf {
    cache_path.with_extension("tlb.quarantined")
}

/// Moves a corrupt cache aside for post-mortem instead of repacking
/// over it (best-effort; replaces any earlier quarantined copy).
fn quarantine_cache(cache_path: &Path) -> bool {
    std::fs::rename(cache_path, quarantined_cache_path(cache_path)).is_ok()
}

/// The cache path for a text data set: the same path with a `.tlb`
/// extension (`corpus.tlt` → `corpus.tlb`).
pub fn cache_path_for(path: &Path) -> PathBuf {
    path.with_extension("tlb")
}

/// Looks for a cache of the text at `path` that can stand in for it:
/// the cache header first, then — only if it is intact — the text's
/// fingerprint, then — only if they match — the rest of the cache, read
/// through the handle its header came from. Returns the data set and the
/// cache's byte size on a hit, or the fallback reason; adds the retries
/// the text read took to `io_retries`.
///
/// # Errors
///
/// I/O errors reading the text, as [`ReadError`].
fn probe_cache<R: Read>(
    path: &Path,
    cache_path: &Path,
    open: impl Fn(&Path) -> io::Result<R>,
    io_retries: &mut usize,
    telemetry: &Telemetry,
) -> Result<Result<(Dataset, usize), CacheFallback>, ReadError> {
    let _span = telemetry.span(stage::INGEST);
    let (file, len, packed_from) = match open_cache(cache_path) {
        Ok(opened) => opened,
        Err(reason) => return Ok(Err(reason)),
    };
    let (fingerprint, retries) = fingerprint_file(path, open).map_err(ReadError::Io)?;
    *io_retries += retries;
    // A stale cache is rejected without reading past its header.
    if fingerprint != packed_from {
        return Ok(Err(CacheFallback::Stale));
    }
    Ok(load_cache(file, len, fingerprint))
}

/// Why a cache that failed to read is not used: a cache of another
/// format version is stale, anything else is corrupt.
fn fallback_for(error: &BinReadError) -> CacheFallback {
    match error {
        BinReadError::UnsupportedVersion(_) => CacheFallback::Stale,
        _ => CacheFallback::Corrupt,
    }
}

/// Opens a cache and reads the source fingerprint in its header; returns
/// the handle rewound to the start, the file length and the fingerprint.
fn open_cache(cache_path: &Path) -> Result<(File, u64, u64), CacheFallback> {
    let mut file = File::open(cache_path).map_err(|_| CacheFallback::Missing)?;
    let len = file.metadata().map_err(|_| CacheFallback::Missing)?.len();
    let mut header = [0u8; binio::HEADER_LEN];
    let header = &mut header[..len.min(binio::HEADER_LEN as u64) as usize];
    file.read_exact(header)
        .and_then(|()| file.rewind())
        .map_err(|_| CacheFallback::Corrupt)?;
    let header = binio::parse_header(header).map_err(|e| fallback_for(&e))?;
    Ok((file, len, header.fingerprint))
}

/// Decodes the cache from the handle [`open_cache`] returned, in one
/// forward pass that verifies the payload checksum, and re-checks the
/// header fingerprint against `fingerprint` (the file may have been
/// rewritten in place since the header was read).
fn load_cache(file: File, len: u64, fingerprint: u64) -> Result<(Dataset, usize), CacheFallback> {
    match Dataset::read_binary_from(file, len) {
        Ok((_, fp)) if fp != fingerprint => Err(CacheFallback::Stale),
        Ok((ds, _)) => Ok((ds, len as usize)),
        Err(e) => Err(fallback_for(&e)),
    }
}

/// Packs `ds` into a `.tlb` file at `cache_path`, stamped with the
/// source `fingerprint`, and returns the file's size in bytes. The
/// image is streamed into a temp sibling (`<name>.tmp`) through a fixed
/// buffer, synced, then renamed over `cache_path`, so readers see either
/// the old file or the whole new one and the image is never held in
/// memory. On failure the temp file is removed.
///
/// # Errors
///
/// I/O errors creating, writing, syncing or renaming the file. The
/// `--cache` layer treats them as "no cache next time".
pub fn write_cache(cache_path: &Path, ds: &Dataset, fingerprint: u64) -> io::Result<u64> {
    let mut tmp = cache_path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let write = || -> io::Result<u64> {
        let mut f = File::create(&tmp)?;
        let len = ds.write_binary(fingerprint, &mut f)?;
        f.sync_all()?;
        std::fs::rename(&tmp, cache_path)?;
        Ok(len)
    };
    write().inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_sim::DatasetBuilder;

    fn text_of(ds: &Dataset) -> Vec<u8> {
        let mut out = Vec::new();
        ds.write_text(&mut out).unwrap();
        out
    }

    fn corpus(traces: usize) -> Vec<u8> {
        text_of(&DatasetBuilder::new(77).traces(traces).build())
    }

    #[test]
    fn read_buffer_is_sized_to_the_file() {
        let dir = std::env::temp_dir().join(format!("tl-store-read-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for len in [0usize, 1, 4095, 100_003, 3 << 20] {
            let path = dir.join(format!("{len}.tlt"));
            let bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            std::fs::write(&path, &bytes).unwrap();
            let (text, retries) = read_file(&path, |p: &Path| File::open(p)).unwrap();
            assert_eq!(text, bytes);
            assert_eq!(retries, 0);
            assert!(
                text.capacity() <= len + 64,
                "{len}-byte file read into a {}-byte buffer",
                text.capacity()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_ingest_is_byte_identical_to_serial() {
        let text = corpus(12);
        let serial = Dataset::read_text_bytes(&text).unwrap();
        for jobs in [1, 2, 8] {
            let (ds, source) = ingest_bytes(&text, &Pool::new(jobs), &Telemetry::noop()).unwrap();
            assert_eq!(text_of(&ds), text_of(&serial), "jobs={jobs}");
            let expect = if jobs == 1 {
                IngestSource::TextSerial
            } else {
                IngestSource::TextParallel
            };
            assert_eq!(source, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_ingest_reports_serial_errors() {
        let mut text = corpus(4);
        text.extend_from_slice(b"e\tbogus\n");
        let serial = Dataset::read_text_bytes(&text).unwrap_err();
        let parallel = ingest_bytes(&text, &Pool::new(4), &Telemetry::noop()).unwrap_err();
        assert_eq!(parallel.to_string(), serial.to_string());
    }

    #[test]
    fn cache_roundtrip_hits_and_invalidates() {
        let dir = std::env::temp_dir().join(format!("tl-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.tlt");
        std::fs::write(&path, corpus(6)).unwrap();
        let pool = Pool::sequential();
        let tm = Telemetry::noop();

        // Cold: no cache yet; one gets written.
        let (first, r1) = ingest_path(&path, true, &pool, &tm).unwrap();
        assert_eq!(r1.cache_fallback, Some(CacheFallback::Missing));
        assert!(r1.cache_written);
        assert!(cache_path_for(&path).exists());

        // Warm: fingerprint matches, cache is used, same bytes out.
        let (second, r2) = ingest_path(&path, true, &pool, &tm).unwrap();
        assert_eq!(r2.source, IngestSource::BinaryCache);
        assert_eq!(r2.cache_fallback, None);
        assert_eq!(text_of(&first), text_of(&second));

        // Input changes: stale cache is bypassed and rewritten.
        std::fs::write(&path, corpus(7)).unwrap();
        let (_, r3) = ingest_path(&path, true, &pool, &tm).unwrap();
        assert_eq!(r3.cache_fallback, Some(CacheFallback::Stale));
        assert!(r3.cache_written);

        // Corrupt cache: truncate it; fallback still yields the data,
        // and the corrupt file is preserved for post-mortem rather
        // than silently repacked over.
        let cache = cache_path_for(&path);
        let full = std::fs::read(&cache).unwrap();
        let torn = full[..full.len() / 2].to_vec();
        std::fs::write(&cache, &torn).unwrap();
        let (fourth, r4) = ingest_path(&path, true, &pool, &tm).unwrap();
        assert_eq!(r4.cache_fallback, Some(CacheFallback::Corrupt));
        assert!(r4.cache_quarantined);
        assert!(r4.cache_written);
        let preserved = quarantined_cache_path(&cache);
        assert_eq!(std::fs::read(&preserved).unwrap(), torn);
        let (fifth, _) = ingest_path(&path, false, &pool, &tm).unwrap();
        assert_eq!(text_of(&fourth), text_of(&fifth));

        // Second load after quarantine: clean cache hit, quarantined
        // copy untouched.
        let (sixth, r6) = ingest_path(&path, true, &pool, &tm).unwrap();
        assert_eq!(r6.source, IngestSource::BinaryCache);
        assert_eq!(r6.cache_fallback, None);
        assert!(!r6.cache_quarantined);
        assert_eq!(text_of(&fourth), text_of(&sixth));
        assert_eq!(std::fs::read(&preserved).unwrap(), torn);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Fails every other `read` with a transient error, so each
    /// successful read costs exactly one retry.
    struct Hiccups<R> {
        inner: R,
        calls: usize,
    }

    impl<R: Read> Read for Hiccups<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "hiccup"));
            }
            self.inner.read(buf)
        }
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tl-store-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn same_length_edit_is_stale_and_repacked_from_the_new_text() {
        let dir = test_dir("edit");
        let path = dir.join("corpus.tlt");
        let text = corpus(6);
        std::fs::write(&path, &text).unwrap();
        let (pool, tm) = (Pool::sequential(), Telemetry::noop());
        ingest_path(&path, true, &pool, &tm).unwrap();
        let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();

        // Same size, same modification time, different content: only
        // the fingerprint can tell.
        let mut edited = text.clone();
        let at = edited.iter().rposition(u8::is_ascii_digit).unwrap();
        edited[at] = if edited[at] == b'9' {
            b'8'
        } else {
            edited[at] + 1
        };
        std::fs::write(&path, &edited).unwrap();
        let f = std::fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(mtime).unwrap();
        drop(f);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), text.len() as u64);

        let (ds, report) = ingest_path(&path, true, &pool, &tm).unwrap();
        assert_eq!(report.cache_fallback, Some(CacheFallback::Stale));
        assert_ne!(report.source, IngestSource::BinaryCache);
        assert!(report.cache_written);
        assert_eq!(
            ds.to_binary(0),
            Dataset::read_text_bytes(&edited).unwrap().to_binary(0)
        );
        // The repacked cache names the text it was parsed from, so the
        // next read hits.
        let image = std::fs::read(cache_path_for(&path)).unwrap();
        assert_eq!(
            binio::header_fingerprint(&image),
            Some(binio::fingerprint_bytes(&edited))
        );
        let (_, warm) = ingest_path(&path, true, &pool, &tm).unwrap();
        assert_eq!(warm.source, IngestSource::BinaryCache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_hit_streams_the_text_once_and_reports_its_retries() {
        let dir = test_dir("retries");
        let path = dir.join("corpus.tlt");
        std::fs::write(&path, corpus(6)).unwrap();
        let (pool, tm) = (Pool::sequential(), Telemetry::noop());
        let opens = std::cell::Cell::new(0);
        let flaky = |p: &Path| {
            opens.set(opens.get() + 1);
            File::open(p).map(|inner| Hiccups { inner, calls: 0 })
        };
        let (_, cold) = ingest_path_via(&path, true, &pool, &tm, flaky).unwrap();
        assert_eq!(cold.cache_fallback, Some(CacheFallback::Missing));
        assert!(cold.io_retries > 0);
        assert_eq!(opens.get(), 1, "a missing cache costs one read of the text");

        let (_, streamed) = fingerprint_file(&path, flaky).unwrap();
        assert!(streamed > 0);
        opens.set(0);
        let (_, warm) = ingest_path_via(&path, true, &pool, &tm, flaky).unwrap();
        assert_eq!(warm.source, IngestSource::BinaryCache);
        assert_eq!(warm.io_retries, streamed);
        assert_eq!(opens.get(), 1, "a hit reads the text only to hash it");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_retrying_ingest_matches_serial() {
        let text = corpus(10);
        let serial = Dataset::read_text_bytes(&text).unwrap();
        for jobs in [1, 2, 8] {
            let (ds, report) = ingest_reader_sharded(
                || Ok(&text[..]),
                RetryPolicy::default(),
                &Pool::new(jobs),
                &Telemetry::noop(),
            )
            .unwrap();
            assert_eq!(text_of(&ds), text_of(&serial), "jobs={jobs}");
            assert_eq!(report.io_retries, 0);
        }
    }

    #[test]
    fn reader_ingest_never_touches_a_cache() {
        let text = corpus(3);
        let (ds, report) =
            ingest_reader(&text[..], &Pool::sequential(), &Telemetry::noop()).unwrap();
        assert_eq!(report.source, IngestSource::TextSerial);
        assert_eq!(report.cache_fallback, None);
        assert!(!report.cache_written);
        assert_eq!(report.events, ds.total_events());
    }
}
