//! The trace store must be a faithful, deterministic transport: the
//! binary `.tlb` format and the sharded-parallel text parse both have
//! to reproduce the serial text parse byte-for-byte, and a damaged
//! cache must fall back to text without changing any result.

use std::path::PathBuf;
use tracelens::checkpoint;
use tracelens::model::binio::HEADER_LEN;
use tracelens::model::{fingerprint_bytes, BinReadError, HeapSize};
use tracelens::prelude::*;
use tracelens::store::{cache_path_for, ingest_bytes, ingest_path, quarantined_cache_path};

fn text_of(ds: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    ds.write_text(&mut out).expect("serialize");
    out
}

/// A scratch directory unique to this test binary + tag.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tracelens-ingest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn sharded_ingest_is_byte_identical_to_serial_at_every_job_count() {
    let ds = DatasetBuilder::new(4242)
        .traces(24)
        .mix(ScenarioMix::Selected)
        .build();
    let text = text_of(&ds);
    let serial = Dataset::read_text_bytes(&text).expect("clean corpus");
    let serial_bytes = text_of(&serial);
    let telemetry = Telemetry::noop();
    for jobs in [1, 2, 8] {
        let pool = Pool::new(jobs);
        let (parsed, source) = ingest_bytes(&text, &pool, &telemetry).expect("clean corpus");
        assert_eq!(
            source,
            if jobs == 1 {
                IngestSource::TextSerial
            } else {
                IngestSource::TextParallel
            },
            "jobs={jobs}"
        );
        assert_eq!(
            text_of(&parsed),
            serial_bytes,
            "jobs={jobs}: sharded parse diverged from serial"
        );
    }
}

#[test]
fn sharded_ingest_reports_the_serial_error_verbatim() {
    let ds = DatasetBuilder::new(7).traces(6).build();
    let mut text = text_of(&ds);
    text.extend_from_slice(b"e\tz\t1\t1\t1\t1\t0\n");
    let serial_err = Dataset::read_text_bytes(&text).unwrap_err().to_string();
    let telemetry = Telemetry::noop();
    for jobs in [2, 8] {
        let err = ingest_bytes(&text, &Pool::new(jobs), &telemetry)
            .unwrap_err()
            .to_string();
        assert_eq!(err, serial_err, "jobs={jobs}: error text diverged");
    }
}

#[test]
fn torn_cache_at_any_offset_falls_back_to_text() {
    let dir = scratch("torn");
    let ds = DatasetBuilder::new(99).traces(4).build();
    let text = text_of(&ds);
    let tlt = dir.join("corpus.tlt");
    std::fs::write(&tlt, &text).expect("write text");
    let image = ds.to_binary(fingerprint_bytes(&text));

    // Every truncation must be rejected by the raw reader...
    for cut in 0..image.len() {
        let e = Dataset::read_binary(&image[..cut]).expect_err("torn image must not parse");
        assert!(
            matches!(e, BinReadError::BadMagic | BinReadError::Truncated),
            "cut at {cut}: {e:?}"
        );
    }

    // ...and a representative set must fall back cleanly at the cache
    // layer, still yielding the exact data set and repacking the cache.
    let pool = Pool::new(1);
    let telemetry = Telemetry::noop();
    for cut in [0, 16, HEADER_GUESS, image.len() / 2, image.len() - 1] {
        std::fs::write(cache_path_for(&tlt), &image[..cut]).expect("write torn cache");
        let (parsed, report) = ingest_path(&tlt, true, &pool, &telemetry).expect("text fallback");
        assert_eq!(text_of(&parsed), text, "cut at {cut}");
        assert_eq!(
            report.cache_fallback,
            Some(CacheFallback::Corrupt),
            "cut at {cut}"
        );
        assert!(report.cache_written, "cut at {cut}: cache must be repacked");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A mid-header offset: long enough to not look truncated at first
/// glance, short of a complete header.
const HEADER_GUESS: usize = 20;

#[test]
fn bit_flipped_cache_falls_back_to_text() {
    let dir = scratch("flipped");
    let text = text_of(&DatasetBuilder::new(5).traces(2).build());
    let tlt = dir.join("corpus.tlt");
    std::fs::write(&tlt, &text).expect("write text");
    let parsed = Dataset::read_text_bytes(&text).expect("clean corpus");
    let image = parsed.to_binary(fingerprint_bytes(&text));
    let flip = |at: usize| {
        let mut bad = image.clone();
        bad[at] ^= 0x10;
        bad
    };
    for at in (HEADER_LEN..image.len()).step_by(613) {
        assert_eq!(
            Dataset::read_binary(&flip(at)).unwrap_err(),
            BinReadError::ChecksumMismatch,
            "flip at {at}"
        );
    }

    // The same damage in a cache file: the load falls back to text,
    // keeps the damaged file for post-mortem and repacks a good one.
    let pool = Pool::new(1);
    let telemetry = Telemetry::noop();
    let cache = cache_path_for(&tlt);
    for at in (HEADER_LEN..image.len()).step_by(image.len() / 7) {
        let damaged = flip(at);
        std::fs::write(&cache, &damaged).expect("write damaged cache");
        let (parsed, report) = ingest_path(&tlt, true, &pool, &telemetry).expect("text fallback");
        assert_eq!(text_of(&parsed), text, "flip at {at}");
        assert_eq!(report.cache_fallback, Some(CacheFallback::Corrupt));
        assert!(report.cache_quarantined);
        let quarantined = std::fs::read(quarantined_cache_path(&cache)).expect("quarantined");
        assert!(quarantined == damaged, "flip at {at}: evidence lost");
        let repacked = std::fs::read(&cache).expect("repacked cache");
        assert!(
            repacked == image,
            "flip at {at}: repacked a different image"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parsed_and_loaded_data_sets_report_equal_heap() {
    let ds = DatasetBuilder::new(808).traces(24).build();
    let text = text_of(&ds);
    let telemetry = Telemetry::noop();
    let (serial, _) = ingest_bytes(&text, &Pool::new(1), &telemetry).expect("clean corpus");
    let (sharded, source) = ingest_bytes(&text, &Pool::new(2), &telemetry).expect("clean corpus");
    assert_eq!(source, IngestSource::TextParallel);
    let (loaded, _) = Dataset::read_binary(&serial.to_binary(0)).expect("fresh image");
    assert_eq!(serial.heap_size(), loaded.heap_size(), "serial parse");
    assert_eq!(sharded.heap_size(), loaded.heap_size(), "sharded parse");
}

#[test]
fn cache_fallbacks_surface_in_the_sanitize_report() {
    let report = SanitizeReport {
        cache_fallbacks: 1,
        ..SanitizeReport::default()
    };
    assert!(report.is_clean(), "a cache fallback is not data corruption");
    let shown = report.to_string();
    assert!(
        shown.contains("binary-cache fallback"),
        "fallbacks must be visible in the report: {shown}"
    );
}

#[test]
fn checkpoint_fingerprint_is_ingest_path_independent() {
    let dir = scratch("ckpt");
    let ds = DatasetBuilder::new(314)
        .traces(8)
        .mix(ScenarioMix::Selected)
        .build();
    let text = text_of(&ds);
    let tlt = dir.join("corpus.tlt");
    std::fs::write(&tlt, &text).expect("write text");

    let pool = Pool::new(1);
    let telemetry = Telemetry::noop();
    let (from_text, r1) = ingest_path(&tlt, true, &pool, &telemetry).expect("first read");
    assert_eq!(r1.source, IngestSource::TextSerial);
    assert!(r1.cache_written);
    let (from_cache, r2) = ingest_path(&tlt, true, &pool, &telemetry).expect("cached read");
    assert_eq!(r2.source, IngestSource::BinaryCache);

    let config = StudyConfig::default();
    let names: Vec<ScenarioName> = from_text.scenarios.iter().map(|s| s.name).collect();
    assert_eq!(
        checkpoint::fingerprint(&from_text, &config, &names),
        checkpoint::fingerprint(&from_cache, &config, &names),
        "old checkpoints must stay valid when ingest switches to the cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_skewed_cache_is_stale_not_fatal() {
    let dir = scratch("skew");
    let ds = DatasetBuilder::new(11).traces(3).build();
    let text = text_of(&ds);
    let tlt = dir.join("corpus.tlt");
    std::fs::write(&tlt, &text).expect("write text");
    let mut image = ds.to_binary(fingerprint_bytes(&text));
    image[4..8].copy_from_slice(&999u32.to_le_bytes());
    std::fs::write(cache_path_for(&tlt), &image).expect("write skewed cache");

    assert_eq!(
        Dataset::read_binary(&image).unwrap_err(),
        BinReadError::UnsupportedVersion(999)
    );
    let (parsed, report) =
        ingest_path(&tlt, true, &Pool::new(1), &Telemetry::noop()).expect("text fallback");
    assert_eq!(text_of(&parsed), text);
    assert_eq!(report.cache_fallback, Some(CacheFallback::Stale));
    assert!(
        !report.cache_quarantined,
        "another version is not corruption"
    );
    assert!(!quarantined_cache_path(&cache_path_for(&tlt)).exists());
    assert!(report.cache_written, "skewed cache must be rewritten");
    let (_, warm) =
        ingest_path(&tlt, true, &Pool::new(1), &Telemetry::noop()).expect("repacked cache");
    assert_eq!(warm.source, IngestSource::BinaryCache);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flaky_sharded_ingest_matches_serial_at_every_job_count() {
    // Differential test for the per-shard retry plane: a transport that
    // fails transiently on a deterministic schedule must yield the
    // exact serial parse at every job count, with every worker's
    // retries absorbed and accounted, never dropped bytes.
    let ds = DatasetBuilder::new(2026)
        .traces(24)
        .mix(ScenarioMix::Selected)
        .build();
    let text = text_of(&ds);
    let serial = Dataset::read_text_bytes(&text).expect("clean corpus");
    let serial_bytes = text_of(&serial);
    let telemetry = Telemetry::noop();
    let plan = ReadFaultPlan::new(77).with_rate(0.2);
    let mut retries_seen = Vec::new();
    for jobs in [1, 2, 8] {
        let pool = Pool::new(jobs);
        let (parsed, report) = tracelens::store::ingest_reader_sharded(
            || Ok(FlakyReader::new(&text[..], plan)),
            RetryPolicy::default(),
            &pool,
            &telemetry,
        )
        .expect("retries absorb the fault schedule");
        assert_eq!(
            text_of(&parsed),
            serial_bytes,
            "jobs={jobs}: flaky ingest diverged from serial"
        );
        assert!(
            report.io_retries > 0,
            "jobs={jobs}: the fault schedule must actually fire"
        );
        retries_seen.push(report.io_retries);
    }
    // The planning pass reads the whole input through one retrying
    // reader, so its retry count is a shared floor; per-shard re-reads
    // add worker retries deterministically per job count.
    assert_eq!(
        retries_seen[1], retries_seen[2],
        "parallel retry accounting must not depend on worker count"
    );
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Random simulated workloads survive text → binary → text with
        /// every byte intact, and the reloaded data set is equal at the
        /// Dataset level too.
        #[test]
        fn random_datasets_survive_the_binary_store(seed in 0u64..10_000, traces in 1usize..6) {
            let ds = DatasetBuilder::new(seed).traces(traces).build();
            let text = text_of(&ds);
            let image = ds.to_binary(fingerprint_bytes(&text));
            let (back, fp) = Dataset::read_binary(&image).expect("fresh image");
            prop_assert_eq!(fp, fingerprint_bytes(&text));
            prop_assert_eq!(text_of(&back), text);
            prop_assert_eq!(&back.instances, &ds.instances);
            prop_assert_eq!(back.scenarios.len(), ds.scenarios.len());
            prop_assert_eq!(back.total_events(), ds.total_events());
        }

        /// Fault-injected (still parseable) data sets round-trip the
        /// binary store unchanged: packing never launders corruption.
        #[test]
        fn corrupted_datasets_round_trip_without_laundering(seed in 0u64..10_000) {
            let clean = DatasetBuilder::new(seed).traces(4).build();
            let (corrupt, _) = FaultInjector::new(seed).with_all(0.05).inject(&clean);
            let text = text_of(&corrupt);
            let image = corrupt.to_binary(fingerprint_bytes(&text));
            let (back, _) = Dataset::read_binary(&image).expect("fresh image");
            prop_assert_eq!(text_of(&back), text);
        }
    }
}
