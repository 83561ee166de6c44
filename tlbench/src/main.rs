//! `tlbench` — the layered end-to-end benchmark of the paths that
//! `tracelens report`, `validate` and `pack` run.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path tlbench/Cargo.toml -- \
//!     --workload report-selected-warm --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run generates its corpus with `tracelens-sim` from `--seed`
//! (several times, to time set-up) and writes it to disk; from then on
//! the program sees only the written files. One client drives a closed
//! loop: each pass starts after the previous one ends and covers the file
//! on disk to the output written, including dropping its data set and
//! study. A discarded warm-up pass comes first; then passes at jobs 1 and
//! 2 alternate for `--seconds`, and every pass's output is checked. One
//! more jobs=1 pass runs with the counting allocator armed. With
//! `--trace 1` a traced pass and a layer sweep follow; neither is timed
//! as a pass. The last stdout line is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod alloc;
mod spans;

use spans::Recorder;
use std::fs::{self, File};
use std::hint::black_box;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tracelens::causality::{mine_contrasts, split_classes, Aggregator, ClassSplit};
use tracelens::model::fingerprint_bytes;
use tracelens::obs::json::JsonWriter;
use tracelens::obs::{RunReport, SpanReport};
use tracelens::prelude::*;
use tracelens::store;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Job counts of the timed passes: serial, and the two cores of the host
/// the benchmark was written for.
const JOBS: [usize; 2] = [1, 2];
/// Set-ups per run; `setup_s` is their median. The first writes the
/// corpus the passes read; the others write a scratch copy between pass
/// pairs, so set-up samples the whole run as the passes do and host
/// drift over the run hits both alike.
const SETUP_RUNS: usize = 5;
/// Timed pass pairs between two set-up repetitions.
const SETUP_EVERY: usize = 2;
/// Timed passes per job count, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Traces per corpus. At 2,400 the selected-mix text straddles 64 MiB
/// across seeds, where `ingest_path`'s growing read buffer doubles to
/// 128 MiB, so peak heap jumped by a fifth between seeds; at 2,560 every
/// seed's text of every mix is above it.
const DEFAULT_TRACES: usize = 2560;
const MB: f64 = 1e6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// The selected driver-heavy scenarios read through a warm `.tlb`.
    SelectedWarm,
    /// The full scenario population parsed from text on every pass.
    FullCold,
    /// The full corpus through store and model only.
    IngestFull,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::SelectedWarm,
        Workload::FullCold,
        Workload::IngestFull,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SelectedWarm => "report-selected-warm",
            Workload::FullCold => "report-full-cold",
            Workload::IngestFull => "ingest-full",
        }
    }

    fn mix(self) -> ScenarioMix {
        match self {
            Workload::SelectedWarm => ScenarioMix::Selected,
            Workload::FullCold | Workload::IngestFull => ScenarioMix::Full,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    traces: usize,
    work_dir: PathBuf,
    /// Corrupts the expected output, so every pass must fail its check.
    plant_mismatch: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut traces = DEFAULT_TRACES;
    let mut work_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    let mut plant_mismatch = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--plant-mismatch" {
            plant_mismatch = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            "--traces" => traces = number(&value)? as usize,
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        traces,
        work_dir,
        plant_mismatch,
    })
}

/// The generated corpus on disk, plus what every pass is checked against.
struct Corpus {
    path: PathBuf,
    cache: PathBuf,
    report: PathBuf,
    text: Vec<u8>,
    /// Where the repeated set-ups write.
    scratch: PathBuf,
    /// The cold-parse report (report workloads) or the corpus text
    /// (`ingest-full`).
    expected: Vec<u8>,
    first_setup_s: f64,
    streams: usize,
    instances: usize,
    events: usize,
}

impl Corpus {
    fn remove_files(&self) {
        let scratch_cache = store::cache_path_for(&self.scratch);
        for path in [
            &self.path,
            &self.cache,
            &self.report,
            &self.scratch,
            &scratch_cache,
        ] {
            let _ = fs::remove_file(path);
        }
    }
}

fn remove_if_present(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

fn study_config(jobs: usize) -> StudyConfig {
    StudyConfig {
        jobs,
        ..StudyConfig::default()
    }
}

fn scenario_names(ds: &Dataset) -> Vec<ScenarioName> {
    ds.scenarios.iter().map(|s| s.name).collect()
}

fn render(study: &Study, ds: &Dataset) -> String {
    tracelens::render_markdown(study, ds, &tracelens::ReportOptions::default())
}

/// A generated corpus: its text, its streams, instances and events, and
/// the seconds its set-up took.
struct Generated {
    text: Vec<u8>,
    shape: (usize, usize, usize),
    setup_s: f64,
}

/// One set-up: generates the corpus from the seed, writes it to `path`
/// and, for the warm workload, packs its `.tlb` as `--cache` does.
fn generate(args: &Args, path: &Path) -> Result<Generated, String> {
    remove_if_present(&store::cache_path_for(path))
        .map_err(|e| format!("cannot remove stale cache: {e}"))?;
    let started = Instant::now();
    let ds = DatasetBuilder::new(args.seed)
        .traces(args.traces)
        .mix(args.workload.mix())
        .build();
    let mut text = Vec::new();
    ds.write_text(&mut text)
        .map_err(|e| format!("cannot render corpus: {e}"))?;
    fs::write(path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let shape = (ds.streams.len(), ds.instances.len(), ds.total_events());
    drop(ds);
    if args.workload == Workload::SelectedWarm {
        let (_, ingest) = store::ingest_path(path, true, &Pool::new(1), &Telemetry::noop())
            .map_err(|e| format!("cannot pack corpus: {e}"))?;
        if !ingest.cache_written {
            return Err("set-up did not write the .tlb cache".to_owned());
        }
    }
    Ok(Generated {
        text,
        shape,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// Writes the corpus the passes read and derives their expected output.
fn set_up(args: &Args) -> Result<Corpus, String> {
    let dir = &args.work_dir;
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let name = args.workload.name();
    let path = dir.join(format!("{name}.tlt"));
    let generated = generate(args, &path)?;
    let mut expected = expected_output(args.workload, &generated.text)?;
    if args.plant_mismatch {
        expected.push(b'\n');
    }
    Ok(Corpus {
        cache: store::cache_path_for(&path),
        report: dir.join(format!("{name}.md")),
        scratch: dir.join(format!("{name}-setup.tlt")),
        path,
        text: generated.text,
        expected,
        first_setup_s: generated.setup_s,
        streams: generated.shape.0,
        instances: generated.shape.1,
        events: generated.shape.2,
    })
}

/// The reference every pass must reproduce byte for byte. For the report
/// workloads it comes from a serial parse of the text and a jobs=1
/// study, so the warm workload's cache reads are checked against a cold
/// parse and every jobs=2 pass against jobs=1.
fn expected_output(workload: Workload, text: &[u8]) -> Result<Vec<u8>, String> {
    if workload == Workload::IngestFull {
        return Ok(text.to_vec());
    }
    let ds = Dataset::read_text_bytes(text).map_err(|e| format!("reference parse: {e}"))?;
    let study = Study::run_governed(&ds, &study_config(1), &scenario_names(&ds))
        .map_err(|e| format!("reference study: {e}"))?;
    if let Some(problem) = study_problem(&study) {
        return Err(format!("reference study: {problem}"));
    }
    Ok(render(&study, &ds).into_bytes())
}

fn study_problem(study: &Study) -> Option<String> {
    if !study.execution.is_clean() {
        return Some(format!("execution report not clean: {}", study.execution));
    }
    if !study.coverage.is_full() {
        return Some("coverage is not full".to_owned());
    }
    None
}

/// Whether the pass took the ingest path its workload is meant to take.
fn ingest_problem(workload: Workload, ingest: &IngestReport) -> Option<String> {
    let ok = match workload {
        Workload::SelectedWarm | Workload::IngestFull => ingest.source == IngestSource::BinaryCache,
        Workload::FullCold => {
            ingest.cache_fallback == Some(CacheFallback::Missing) && ingest.cache_written
        }
    };
    (!ok).then(|| {
        format!(
            "unexpected ingest path: {} (cache fallback {:?}, written {})",
            ingest.source, ingest.cache_fallback, ingest.cache_written
        )
    })
}

/// `to_binary` plus an atomic write, as the `.tlb` cache is written.
fn pack(ds: &Dataset, text: &[u8], cache: &Path) -> io::Result<()> {
    let image = ds.to_binary(fingerprint_bytes(text));
    let tmp = cache.with_extension("tlb.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&image)?;
    file.sync_all()?;
    fs::rename(&tmp, cache)
}

/// A writer that compares what it is given with `expected`.
struct Compare<'a> {
    expected: &'a [u8],
    pos: usize,
    same: bool,
}

impl Write for Compare<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let end = self.pos + buf.len();
        self.same &= self.expected.get(self.pos..end) == Some(buf);
        self.pos = end;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Whether `ds` writes back to exactly `expected`.
fn writes_text(ds: &Dataset, expected: &[u8]) -> bool {
    let mut cmp = Compare {
        expected,
        pos: 0,
        same: true,
    };
    ds.write_text(&mut cmp).is_ok() && cmp.same && cmp.pos == expected.len()
}

/// What one pass did.
struct Pass {
    wall_s: f64,
    problem: Option<String>,
    cache_hit: bool,
    cache_fallback: bool,
}

/// One pass of `workload`, timed from the file on disk to the output
/// written, minus its output checks.
fn run_pass(
    workload: Workload,
    corpus: &Corpus,
    jobs: usize,
    rec: &mut Recorder,
    telemetry: &Telemetry,
) -> Pass {
    // The cold workload starts every pass without a cache, untimed.
    let cleared = match workload {
        Workload::FullCold => {
            remove_if_present(&corpus.cache).map_err(|e| format!("cannot remove the cache: {e}"))
        }
        _ => Ok(()),
    };
    rec.take_excluded();
    rec.enter("pass");
    let started = Instant::now();
    let result = cleared.and_then(|()| match workload {
        Workload::IngestFull => ingest_pass(corpus, jobs, rec, telemetry),
        _ => report_pass(workload, corpus, jobs, rec, telemetry),
    });
    let wall = started.elapsed().saturating_sub(rec.take_excluded());
    rec.exit();
    let ingest = result.as_ref().ok();
    Pass {
        wall_s: wall.as_secs_f64(),
        cache_hit: ingest.is_some_and(|i| i.source == IngestSource::BinaryCache),
        cache_fallback: ingest.is_some_and(|i| i.cache_fallback.is_some()),
        problem: result.err(),
    }
}

/// `tracelens report --cache`: ingest, validate, study, render, write.
fn report_pass(
    workload: Workload,
    corpus: &Corpus,
    jobs: usize,
    rec: &mut Recorder,
    telemetry: &Telemetry,
) -> Result<IngestReport, String> {
    let pool = Pool::new(jobs);
    let (ds, ingest) = rec
        .span("store.ingest", || {
            store::ingest_path(&corpus.path, true, &pool, telemetry)
        })
        .map_err(|e| format!("ingest: {e}"))?;
    rec.span("model.validate", || ds.validate())
        .map_err(|e| format!("validate: {e}"))?;
    let names = scenario_names(&ds);
    let study = rec
        .span("core.study", || {
            Study::run_governed_traced(&ds, &study_config(jobs), &names, telemetry)
        })
        .map_err(|e| format!("study: {e}"))?;
    let md = rec.span("core.render", || render(&study, &ds));
    fs::write(&corpus.report, &md).map_err(|e| format!("cannot write the report: {e}"))?;
    let problem = rec.check(|| {
        study_problem(&study)
            .or_else(|| ingest_problem(workload, &ingest))
            .or_else(|| {
                (md.as_bytes() != corpus.expected)
                    .then(|| "report differs from the cold-parse jobs=1 report".to_owned())
            })
    });
    problem.map_or(Ok(ingest), Err)
}

/// `validate` and `pack` on the text, then a warm reload of the cache.
fn ingest_pass(
    corpus: &Corpus,
    jobs: usize,
    rec: &mut Recorder,
    telemetry: &Telemetry,
) -> Result<IngestReport, String> {
    let pool = Pool::new(jobs);
    let text = rec
        .span("store.read", || fs::read(&corpus.path))
        .map_err(|e| format!("read: {e}"))?;
    let (ds, _) = rec
        .span("store.parse", || {
            store::ingest_bytes(&text, &pool, telemetry)
        })
        .map_err(|e| format!("parse: {e}"))?;
    rec.span("model.validate", || ds.validate())
        .map_err(|e| format!("validate: {e}"))?;
    rec.span("store.pack", || pack(&ds, &text, &corpus.cache))
        .map_err(|e| format!("pack: {e}"))?;
    drop(ds);
    drop(text);
    let (loaded, ingest) = rec
        .span("store.load", || {
            store::ingest_path(&corpus.path, true, &pool, telemetry)
        })
        .map_err(|e| format!("reload: {e}"))?;
    let problem = rec.check(|| {
        ingest_problem(Workload::IngestFull, &ingest).or_else(|| {
            (!writes_text(&loaded, &corpus.expected))
                .then(|| "reloaded .tlb does not write back the parsed text".to_owned())
        })
    });
    problem.map_or(Ok(ingest), Err)
}

/// Units attempted and failed (every pass, and the layer sweep), and
/// the passes' cache outcomes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    passes: u64,
    failed: u64,
    cache_hits: u64,
    cache_fallbacks: u64,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, pass: &Pass) {
        self.attempted += 1;
        self.passes += 1;
        self.cache_hits += pass.cache_hit as u64;
        self.cache_fallbacks += pass.cache_fallback as u64;
        if let Some(p) = &pass.problem {
            self.fail(p.clone());
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if !self.problems.contains(&problem) {
            self.problems.push(problem);
        }
    }

    fn per_pass(&self, n: u64) -> f64 {
        n as f64 / self.passes as f64
    }
}

/// Named metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn write_json(&self, w: &mut JsonWriter, key: &str) {
        w.begin_obj(Some(key));
        for &(name, value, unit) in &self.0 {
            w.begin_obj(Some(name));
            w.f64(Some("value"), value);
            w.str(Some("unit"), unit);
            w.end_obj();
        }
        w.end_obj();
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Work counts of the layer sweep, plus the study's own telemetry at
/// jobs 1 and 2.
struct Sweep {
    nodes: u64,
    nodes_visited: u64,
    patterns: u64,
    study: [RunReport; 2],
}

/// Each layer's public calls once, in its own span, over the workload's
/// corpus: the store and model calls, the study at jobs 1 and 2 with the
/// `obs` telemetry attached, and then the study's layers one by one with
/// each stream indexed once and each instance's wait graph built once.
fn layer_sweep(corpus: &Corpus, rec: &mut Recorder) -> Result<Sweep, String> {
    rec.enter("layers");
    let sweep = sweep_layers(corpus, rec);
    rec.exit();
    sweep
}

fn sweep_layers(corpus: &Corpus, rec: &mut Recorder) -> Result<Sweep, String> {
    let noop = Telemetry::noop();
    let (one, two) = (Pool::new(1), Pool::new(2));
    let text = &corpus.text;
    rec.span("store.fingerprint", || black_box(fingerprint_bytes(text)));
    let (parsed, _) = rec
        .span("store.parse", || store::ingest_bytes(text, &one, &noop))
        .map_err(|e| format!("parse: {e}"))?;
    let (parsed2, _) = rec
        .span("store.parse_jobs2", || {
            store::ingest_bytes(text, &two, &noop)
        })
        .map_err(|e| format!("parse: {e}"))?;
    drop(parsed2);
    rec.span("model.validate", || parsed.validate())
        .map_err(|e| format!("validate: {e}"))?;
    rec.span("store.pack", || pack(&parsed, text, &corpus.cache))
        .map_err(|e| format!("pack: {e}"))?;
    drop(parsed);
    let (ds, ingest) = rec
        .span("store.load", || {
            store::ingest_path(&corpus.path, true, &one, &noop)
        })
        .map_err(|e| format!("load: {e}"))?;
    if let Some(problem) = ingest_problem(Workload::IngestFull, &ingest) {
        return Err(problem);
    }

    let names = scenario_names(&ds);
    let (study, study1) = traced_study(rec, "core.study", &ds, &names, 1)?;
    let (study2, study2_obs) = traced_study(rec, "core.study_jobs2", &ds, &names, 2)?;
    if render(&study, &ds) != render(&study2, &ds) {
        return Err("study report differs between jobs 1 and 2".to_owned());
    }
    drop(study2);
    rec.span("core.render", || black_box(render(&study, &ds)));
    drop(study);

    let config = study_config(1);
    let indices: Vec<StreamIndex> = rec.span("waitgraph.index", || {
        ds.streams.iter().map(StreamIndex::new).collect()
    });
    let graphs: Vec<WaitGraph> = rec.span("waitgraph.build", || {
        ds.instances
            .iter()
            .map(|i| {
                let k = i.trace.0 as usize;
                match (ds.streams.get(k), indices.get(k)) {
                    (Some(stream), Some(index)) if stream.id() == i.trace => {
                        Ok(WaitGraph::build(stream, index, i))
                    }
                    _ => Err(format!("instance of {} has no stream", i.trace)),
                }
            })
            .collect::<Result<_, _>>()
    })?;
    drop(indices);
    let nodes = graphs.iter().map(|g| g.node_count() as u64).sum();

    let analyzer = ImpactAnalyzer::new(config.components.clone());
    let global = rec.span("impact.global", || analyzer.analyze(&ds));
    let scenario_visits: usize = rec.span("impact.scenario", || {
        names
            .iter()
            .map(|name| {
                let all = analyzer.analyze_where(&ds, |i| i.scenario == *name);
                let slow = match ds.scenario(name).map(|s| s.thresholds) {
                    Some(th) => analyzer.analyze_where(&ds, |i| {
                        i.scenario == *name && th.classify(i.duration()) == Some(false)
                    }),
                    None => ImpactReport::default(),
                };
                all.nodes_visited + slow.nodes_visited
            })
            .sum()
    });

    let causality = CausalityAnalysis::new(config.causality.clone());
    rec.span("causality.analyze", || {
        for name in &names {
            let _ = black_box(causality.analyze(&ds, name));
        }
    });
    let splits: Vec<ClassSplit<'_>> = rec.span("causality.classes", || {
        names
            .iter()
            .filter_map(|name| split_classes(&ds, name))
            .collect()
    });
    let awgs = rec.span("causality.aggregate", || {
        names
            .iter()
            .zip(&splits)
            .filter(|(_, split)| !split.fast.is_empty() && !split.slow.is_empty())
            .map(|(name, split)| {
                let aggregate = |want_fast: bool| {
                    let mut agg = Aggregator::new(&ds.stacks, &config.causality.components);
                    // Walks the instances in `split_classes` order, so
                    // each class aggregates the graphs built above.
                    for (i, graph) in ds.instances.iter().zip(&graphs) {
                        if i.scenario == *name
                            && split.thresholds.classify(i.duration()) == Some(want_fast)
                        {
                            agg.add_graph_tagged(graph, (i.trace, i.tid));
                        }
                    }
                    agg.finish()
                };
                (aggregate(true), aggregate(false), split.thresholds)
            })
            .collect::<Vec<_>>()
    });
    let patterns = rec.span("causality.mine", || {
        awgs.iter()
            .map(|(fast, slow, th)| {
                mine_contrasts(fast, slow, *th, config.causality.segment_bound)
                    .0
                    .len() as u64
            })
            .sum()
    });
    Ok(Sweep {
        nodes,
        nodes_visited: (global.nodes_visited + scenario_visits) as u64,
        patterns,
        study: [study1, study2_obs],
    })
}

/// The study at `jobs` in a span named `name`, with its `obs` telemetry.
fn traced_study(
    rec: &mut Recorder,
    name: &'static str,
    ds: &Dataset,
    names: &[ScenarioName],
    jobs: usize,
) -> Result<(Study, RunReport), String> {
    let (telemetry, sink) = CollectingSink::telemetry();
    let study = rec
        .span(name, || {
            Study::run_governed_traced(ds, &study_config(jobs), names, &telemetry)
        })
        .map_err(|e| format!("study: {e}"))?;
    match study_problem(&study) {
        Some(problem) => Err(problem),
        None => Ok((study, sink.report())),
    }
}

/// Thread time inside the study's `obs` spans: each span's duration
/// minus its children's, summed over the tree (concurrent worker spans
/// each count in full).
fn busy_ns(spans: &[SpanReport]) -> u64 {
    spans
        .iter()
        .map(|s| s.exclusive_ns() + busy_ns(&s.children))
        .sum()
}

fn counter(report: &RunReport, name: &str) -> f64 {
    report.metrics.counters.get(name).copied().unwrap_or(0) as f64
}

/// What the traced run recorded: the traced pass, then the layer sweep.
struct Traced {
    rec: Recorder,
    /// The traced pass's root span.
    root: usize,
    wall_s: f64,
    sweep: Sweep,
    /// The traced pass's own `obs` telemetry.
    obs: RunReport,
}

/// The per-layer metrics: times from the sweep's spans, allocations from
/// the memory pass `mem`, and the traced pass's overhead and
/// unattributed time.
fn layer_metrics(
    t: &Traced,
    untraced_wall_s: f64,
    corpus: &Corpus,
    mem: &Recorder,
    tally: &Tally,
) -> Metrics {
    let mut m = Metrics::default();
    let (rec, sweep) = (&t.rec, &t.sweep);
    let s = |name: &str| rec.self_s(name).unwrap_or(0.0);
    let [study1, study2] = &sweep.study;
    let mem_root = mem.last("pass").expect("the memory pass has a root span");
    m.put("store.parse_s", s("store.parse"), "s");
    m.put("store.parse_s_jobs2", s("store.parse_jobs2"), "s");
    m.put("store.pack_s", s("store.pack"), "s");
    m.put("store.load_s", s("store.load"), "s");
    m.put("store.fingerprint_s", s("store.fingerprint"), "s");
    m.put(
        "store.alloc_mb",
        mem.alloc_under(mem_root, "store.") as f64 / MB,
        "MB",
    );
    m.put(
        "store.cache_hits",
        tally.per_pass(tally.cache_hits),
        "1/pass",
    );
    m.put(
        "store.cache_fallbacks",
        tally.per_pass(tally.cache_fallbacks),
        "1/pass",
    );
    m.put("model.validate_s", s("model.validate"), "s");
    m.put("waitgraph.index_s", s("waitgraph.index"), "s");
    m.put("waitgraph.build_s", s("waitgraph.build"), "s");
    m.put("waitgraph.nodes", sweep.nodes as f64, "count");
    m.put(
        "waitgraph.graphs_per_instance",
        counter(study1, "waitgraph.graphs") / corpus.instances as f64,
        "ratio",
    );
    m.put(
        "waitgraph.indices_per_stream",
        counter(study1, "waitgraph.indices") / corpus.streams as f64,
        "ratio",
    );
    m.put(
        "waitgraph.indexed_events_per_event",
        counter(study1, "waitgraph.indexed_events") / corpus.events as f64,
        "ratio",
    );
    m.put("impact.global_s", s("impact.global"), "s");
    m.put("impact.scenario_s", s("impact.scenario"), "s");
    m.put("impact.nodes_visited", sweep.nodes_visited as f64, "count");
    m.put("causality.analyze_s", s("causality.analyze"), "s");
    m.put("causality.classes_s", s("causality.classes"), "s");
    m.put("causality.aggregate_s", s("causality.aggregate"), "s");
    m.put("causality.mine_s", s("causality.mine"), "s");
    m.put("causality.patterns", sweep.patterns as f64, "count");
    m.put("core.study_s", s("core.study"), "s");
    m.put("core.study_s_jobs2", s("core.study_jobs2"), "s");
    m.put("core.render_s", s("core.render"), "s");
    m.put(
        "core.alloc_mb",
        mem.alloc_under(mem_root, "core.") as f64 / MB,
        "MB",
    );
    m.put("pool.tasks", counter(study2, "pool.tasks"), "count");
    m.put("pool.steals", counter(study2, "pool.steals"), "count");
    m.put("pool.parks", counter(study2, "pool.parks"), "count");
    m.put(
        "pool.speedup_jobs2",
        s("core.study") / s("core.study_jobs2"),
        "ratio",
    );
    m.put(
        "pool.busy_inflation",
        busy_ns(&study2.spans) as f64 / busy_ns(&study1.spans) as f64,
        "ratio",
    );
    m.put("trace.overhead", t.wall_s / untraced_wall_s, "ratio");
    m.put("unattributed_s", rec.self_ns(t.root) as f64 / 1e9, "s");
    m
}

/// A fingerprint of the source tree the benchmark was built from, which
/// stands in for a commit id (the benchmark may run outside a git
/// checkout): every file under `crates/` and `shims/`, the root manifest
/// and lock file, and the benchmark's own sources.
fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench.parent().unwrap_or(bench);
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in [root.join("crates"), root.join("shims"), bench.join("src")] {
        walk(&dir, &mut files);
    }
    files.sort();
    let mut all = Vec::new();
    for file in files {
        if let Ok(bytes) = fs::read(&file) {
            let rel = file.strip_prefix(root).unwrap_or(&file);
            all.extend_from_slice(rel.to_string_lossy().as_bytes());
            all.extend_from_slice(&bytes);
        }
    }
    fingerprint_bytes(&all)
}

fn write_provenance(w: &mut JsonWriter, args: &Args, corpus: &Corpus, passes: [usize; 2]) {
    w.begin_obj(Some("provenance"));
    w.str(Some("workload"), args.workload.name());
    w.u64(Some("seed"), args.seed);
    w.u64(Some("traces"), args.traces as u64);
    w.begin_arr(Some("jobs"));
    for jobs in JOBS {
        w.u64(None, jobs as u64);
    }
    w.end_arr();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    w.u64(Some("nproc"), nproc as u64);
    w.str(
        Some("corpus_fingerprint"),
        &format!("{:016x}", fingerprint_bytes(&corpus.text)),
    );
    w.str(
        Some("source_fingerprint"),
        &format!("{:016x}", source_fingerprint()),
    );
    w.u64(Some("streams"), corpus.streams as u64);
    w.u64(Some("instances"), corpus.instances as u64);
    w.u64(Some("events"), corpus.events as u64);
    w.u64(Some("text_bytes"), corpus.text.len() as u64);
    w.u64(Some("seconds"), args.seconds);
    w.u64(Some("passes_jobs1"), passes[0] as u64);
    w.u64(Some("passes_jobs2"), passes[1] as u64);
    w.end_obj();
}

/// Collapses the writer's indented output onto one line (no string this
/// benchmark writes contains a newline).
fn one_line(json: &str) -> String {
    json.lines().map(str::trim_start).collect()
}

fn run(args: &Args) -> Result<bool, String> {
    let corpus = set_up(args)?;
    let outcome = measure(args, &corpus);
    corpus.remove_files();
    outcome
}

fn measure(args: &Args, corpus: &Corpus) -> Result<bool, String> {
    let workload = args.workload;
    let noop = Telemetry::noop();
    let mut tally = Tally::default();
    tally.add(&run_pass(workload, corpus, 1, &mut Recorder::off(), &noop));

    let mut walls: [Vec<f64>; 2] = Default::default();
    let mut setup_s = vec![corpus.first_setup_s];
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    while started.elapsed() < budget || walls.iter().any(|w| w.len() < MIN_PASSES) {
        for (k, jobs) in JOBS.into_iter().enumerate() {
            let pass = run_pass(workload, corpus, jobs, &mut Recorder::off(), &noop);
            walls[k].push(pass.wall_s);
            tally.add(&pass);
        }
        if walls[0].len().is_multiple_of(SETUP_EVERY) && setup_s.len() < SETUP_RUNS {
            setup_s.push(generate(args, &corpus.scratch)?.setup_s);
        }
    }
    while setup_s.len() < SETUP_RUNS {
        setup_s.push(generate(args, &corpus.scratch)?.setup_s);
    }

    let mut mem = Recorder::on(Instant::now());
    alloc::arm();
    let pass = run_pass(workload, corpus, 1, &mut mem, &noop);
    let peak_bytes = alloc::disarm();
    tally.add(&pass);

    let mut traced = None;
    if args.trace {
        let mut rec = Recorder::on(Instant::now());
        let (telemetry, sink) = CollectingSink::telemetry();
        let pass = run_pass(workload, corpus, 1, &mut rec, &telemetry);
        tally.add(&pass);
        let root = rec.last("pass").expect("the traced pass has a root span");
        tally.attempted += 1;
        match layer_sweep(corpus, &mut rec) {
            Ok(sweep) => {
                traced = Some(Traced {
                    rec,
                    root,
                    wall_s: pass.wall_s,
                    sweep,
                    obs: sink.report(),
                })
            }
            Err(problem) => tally.fail(format!("layer sweep: {problem}")),
        }
    }

    let mut e2e = Metrics::default();
    e2e.put("wall_s", median(&walls[0]), "s");
    e2e.put("wall_s_jobs2", median(&walls[1]), "s");
    e2e.put("peak_heap_mb", peak_bytes as f64 / MB, "MB");
    e2e.put(
        "ok_ratio",
        (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
        "ratio",
    );
    e2e.put("setup_s", median(&setup_s), "s");
    let layers = traced
        .as_ref()
        .map(|t| layer_metrics(t, median(&walls[0]), corpus, &mem, &tally));

    let passes = [walls[0].len(), walls[1].len()];
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    write_provenance(&mut w, args, corpus, passes);
    w.end_obj();
    println!("{}", one_line(&w.finish()));

    // The full record of the run: provenance, every metric, the pass
    // samples, the problems and the spans; the `obs` telemetry of the
    // traced pass and of the sweep's studies goes beside it.
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    write_provenance(&mut w, args, corpus, passes);
    e2e.write_json(&mut w, "end_to_end");
    if let Some(layers) = &layers {
        layers.write_json(&mut w, "per_layer");
    }
    for (key, values) in [
        ("wall_s_samples", &walls[0]),
        ("wall_s_jobs2_samples", &walls[1]),
        ("setup_s_samples", &setup_s),
    ] {
        w.begin_arr(Some(key));
        for &v in values {
            w.f64(None, v);
        }
        w.end_arr();
    }
    w.begin_arr(Some("problems"));
    for p in &tally.problems {
        w.str(None, p);
    }
    w.end_arr();
    w.begin_obj(Some("memory_pass"));
    mem.write_json(&mut w);
    w.end_obj();
    if let Some(t) = &traced {
        w.begin_obj(Some("traced"));
        t.rec.write_json(&mut w);
        w.end_obj();
    }
    w.end_obj();
    let stem = args.work_dir.join(workload.name());
    let write = |path: PathBuf, text: String| {
        fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write(stem.with_extension("json"), w.finish())?;
    if let Some(t) = &traced {
        let [study1, study2] = &t.sweep.study;
        let obs = format!(
            "{{\"pass\": {},\n\"study_jobs1\": {},\n\"study_jobs2\": {}}}\n",
            t.obs.to_json(),
            study1.to_json(),
            study2.to_json()
        );
        write(stem.with_extension("obs.json"), obs)?;
    }

    for p in &tally.problems {
        eprintln!("tlbench: {p}");
    }
    let correct = tally.failed == 0;
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.bool(Some("correct"), correct);
    w.u64(Some("attempted"), tally.attempted);
    w.u64(Some("failed"), tally.failed);
    layers
        .as_ref()
        .unwrap_or(&e2e)
        .write_json(&mut w, "metrics");
    w.end_obj();
    println!("{}", one_line(&w.finish()));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tlbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tlbench: {e}");
            ExitCode::from(2)
        }
    }
}
