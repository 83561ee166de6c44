//! I1 — trace-store ingest throughput: serial text parse vs.
//! sharded-parallel text parse vs. `.tlb` binary-cache load, over the
//! selected-scenario corpus (600 traces by default, the Table 1–4
//! workload). The binary mode is what `--cache` runs on a hit: an
//! `ingest_path` over the corpus file on disk that hashes the text and
//! streams the `.tlb` next to it.
//!
//! The paper's evaluation ingests ~19,500 real ETW traces; at that
//! scale the analyzers starve behind a serial parser, so the trace
//! store (PR 8) adds the two fast paths this experiment quantifies.
//! Every mode's result is verified byte-identical (via `write_text`) to
//! the corpus before its throughput counts, and two gates are enforced
//! in-process:
//!
//! * the binary load must beat the serial text parse outright, and
//! * stack/symbol interning must not dominate the serial parse (the
//!   satellite check for the `StackTable::intern` fix: interning is
//!   bounded below half the parse wall).
//!
//! Results land in `BENCH_ingest.json` (override with
//! `TRACELENS_BENCH_OUT`):
//!
//! ```text
//! TRACELENS_BENCH_OUT=/tmp/i.json \
//!   cargo run --release -p tracelens-bench --bin exp_ingest -- 600 2014
//! ```

use std::fmt::Write as _;
use std::time::Instant;
use tracelens::model::StackId;
use tracelens::prelude::*;
use tracelens::store;
use tracelens_bench::{row, rule, selected_dataset, BenchArgs};

/// Wall-time samples per mode; the minimum is reported.
const RUNS: usize = 5;

/// Default JSON artifact path (repo root when run via `cargo run`).
const DEFAULT_OUT: &str = "BENCH_ingest.json";

struct ModeSample {
    mode: &'static str,
    wall_s: f64,
    events_per_s: f64,
    mb_per_s: f64,
    speedup_vs_serial: f64,
}

/// Minimum wall time over [`RUNS`] runs of `f`, plus one result.
fn best_of<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("RUNS >= 1"))
}

fn main() {
    let args = BenchArgs::parse();
    let (traces, seed) = (args.traces, args.seed);
    let jobs = Pool::new(0).jobs();
    eprintln!("generating {traces} traces (seed {seed}); ingest pool uses {jobs} jobs...");
    let ds = selected_dataset(traces, seed);
    let mut text = Vec::new();
    ds.write_text(&mut text).expect("serialize corpus");
    let events = ds.total_events();
    let mb = text.len() as f64 / 1e6;
    eprintln!(
        "corpus: {} traces / {events} events / {:.1} MB of text",
        ds.streams.len(),
        mb
    );

    let verify = |parsed: &Dataset, mode: &str| {
        let mut back = Vec::new();
        parsed.write_text(&mut back).expect("serialize");
        assert_eq!(back, text, "{mode}: ingest result diverged from the corpus");
    };

    // Mode 1 — serial text parse (the reference semantics).
    let (serial_wall, parsed) = best_of(|| Dataset::read_text_bytes(&text).expect("clean corpus"));
    verify(&parsed, "text-serial");

    // Mode 2 — sharded-parallel text parse on the worker pool.
    let pool = Pool::new(0);
    let telemetry = Telemetry::noop();
    let (parallel_wall, (parsed, source)) =
        best_of(|| tracelens::store::ingest_bytes(&text, &pool, &telemetry).expect("clean corpus"));
    verify(&parsed, "text-parallel");
    if pool.is_parallel() {
        assert_eq!(
            source,
            IngestSource::TextParallel,
            "multi-trace corpus must take the sharded path"
        );
    }

    // Mode 3 — `.tlb` binary columnar load (pack once, read many): a
    // cold `ingest_path` writes the cache, then each timed run is a hit.
    let dir = std::env::temp_dir().join(format!("tracelens-exp-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let corpus = dir.join("corpus.tlt");
    std::fs::write(&corpus, &text).expect("write corpus");
    let (_, cold) = store::ingest_path(&corpus, true, &pool, &telemetry).expect("clean corpus");
    assert!(cold.cache_written, "the cold ingest must pack the cache");
    let (binary_wall, (parsed, hit)) =
        best_of(|| store::ingest_path(&corpus, true, &pool, &telemetry).expect("clean corpus"));
    assert_eq!(
        hit.source,
        IngestSource::BinaryCache,
        "every timed run is a hit"
    );
    verify(&parsed, "binary");
    let image_len = hit.bytes;
    let _ = std::fs::remove_dir_all(&dir);

    // Satellite micro-assertion: replay exactly the interning the text
    // parse performs (every frame string and stack of the corpus, once)
    // and bound it below half the serial parse wall — interning must
    // not be the top ingest cost.
    let resolved: Vec<Vec<&str>> = (0..ds.stacks.len())
        .map(|i| ds.stacks.resolve_frames(StackId(i as u32)))
        .collect();
    let (intern_wall, table) = best_of(|| {
        let mut t = StackTable::new();
        let mut frames = Vec::new();
        for stack in &resolved {
            frames.clear();
            for f in stack {
                frames.push(t.intern_frame(f));
            }
            t.intern(&frames);
        }
        t
    });
    assert_eq!(table.len(), ds.stacks.len(), "intern replay is faithful");
    assert!(
        intern_wall < serial_wall * 0.5,
        "interning ({intern_wall:.4}s) dominates the serial parse ({serial_wall:.4}s)"
    );

    assert!(
        binary_wall < serial_wall,
        "binary load ({binary_wall:.4}s) must beat the serial text parse ({serial_wall:.4}s)"
    );

    let sample = |mode: &'static str, wall: f64, bytes: usize| ModeSample {
        mode,
        wall_s: wall,
        events_per_s: events as f64 / wall,
        mb_per_s: bytes as f64 / 1e6 / wall,
        speedup_vs_serial: serial_wall / wall,
    };
    let samples = [
        sample("text-serial", serial_wall, text.len()),
        sample("text-parallel", parallel_wall, text.len()),
        sample("binary", binary_wall, image_len),
    ];

    println!("== I1: ingest throughput — {traces} traces, {events} events ==\n");
    let widths = [14, 10, 13, 10, 9];
    row(&["mode", "wall", "events/s", "MB/s", "speedup"], &widths);
    rule(&widths);
    for s in &samples {
        row(
            &[
                s.mode,
                &format!("{:.4}s", s.wall_s),
                &format!("{:.0}", s.events_per_s),
                &format!("{:.1}", s.mb_per_s),
                &format!("{:.2}x", s.speedup_vs_serial),
            ],
            &widths,
        );
    }
    println!();
    println!(
        "interning replay: {intern_wall:.4}s ({:.0}% of the serial parse)",
        100.0 * intern_wall / serial_wall
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"ingest_throughput\",");
    let _ = writeln!(json, "  \"traces\": {traces},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    let _ = writeln!(json, "  \"events\": {events},");
    let _ = writeln!(json, "  \"text_bytes\": {},", text.len());
    let _ = writeln!(json, "  \"binary_bytes\": {image_len},");
    let _ = writeln!(json, "  \"intern_wall_s\": {intern_wall:.6},");
    let _ = writeln!(
        json,
        "  \"intern_fraction_of_serial\": {:.4},",
        intern_wall / serial_wall
    );
    let _ = writeln!(json, "  \"modes\": [");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"mode\": \"{}\", \"wall_s\": {:.6}, \"events_per_s\": {:.0}, \
             \"mb_per_s\": {:.2}, \"speedup_vs_serial\": {:.3} }}{comma}",
            s.mode, s.wall_s, s.events_per_s, s.mb_per_s, s.speedup_vs_serial
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    let out = std::env::var("TRACELENS_BENCH_OUT").unwrap_or_else(|_| DEFAULT_OUT.to_owned());
    match std::fs::write(&out, &json) {
        Ok(()) => eprintln!("wrote {out}"),
        Err(e) => {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
}
