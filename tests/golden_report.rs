//! Golden gate: the full study output over two small corpora is pinned
//! to checked-in files under `tests/golden/`.
//!
//! Every entry point — `Study::run`, `Study::run_supervised` (plus a
//! checkpointed resume) and `Study::run_governed` with an unlimited
//! budget — must reproduce the golden snapshot at jobs 1, 2 and 8. An
//! execution-faulted run and a memory-governed run pin the fault and
//! degrade paths, execution report included.
//!
//! A snapshot is the rendered Markdown report followed by every number
//! the report summarizes: all `ImpactReport` fields, the class counts,
//! mining statistics and AWG scope of each `CausalityReport`, and a
//! digest of its full pattern list.
//!
//! Intended output changes are re-blessed explicitly:
//!
//! ```sh
//! TRACELENS_BLESS=1 cargo test -p tracelens --test golden_report
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tracelens::prelude::*;

const JOBS: [usize; 3] = [1, 2, 8];

fn dataset(mix: ScenarioMix) -> Dataset {
    DatasetBuilder::new(2014).traces(40).mix(mix).build()
}

fn names_of(ds: &Dataset) -> Vec<ScenarioName> {
    ds.scenarios.iter().map(|s| s.name).collect()
}

fn config(jobs: usize) -> StudyConfig {
    StudyConfig {
        jobs,
        ..StudyConfig::default()
    }
}

/// A fresh checkpoint directory, unique per call within this process.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("tracelens-golden-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// FNV-1a: a stable digest of a pattern list's `Debug` rendering.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The Markdown report plus the raw numbers behind it. With
/// `execution` set, the supervised execution account is appended too
/// (clean runs leave it out: restored and unsupervised runs account
/// their units differently while rendering the same report).
fn snapshot(study: &Study, ds: &Dataset, execution: bool) -> String {
    let mut out = tracelens::render_markdown(study, ds, &tracelens::ReportOptions::default());
    let _ = writeln!(out, "\n## Raw results\n");
    let _ = writeln!(out, "impact: {:?}", study.impact);
    let _ = writeln!(out, "coverage: {:?}", study.coverage);
    for (name, s) in &study.scenarios {
        let _ = writeln!(out, "{name} impact: {:?}", s.impact);
        let _ = writeln!(out, "{name} slow_impact: {:?}", s.slow_impact);
        match &s.causality {
            Ok(r) => {
                let _ = writeln!(
                    out,
                    "{name} causality: fast={} slow={} margin={} patterns={} \
                     scope={:?} reduced={:?} digest={:016x}",
                    r.fast_instances,
                    r.slow_instances,
                    r.margin_instances,
                    r.patterns.len(),
                    r.slow_scope_time,
                    r.slow_reduced_time,
                    digest(&format!("{:?}", r.patterns)),
                );
                let _ = writeln!(out, "{name} stats: {:?}", r.stats);
            }
            Err(e) => {
                let _ = writeln!(out, "{name} causality: error: {e}");
            }
        }
    }
    if execution {
        let _ = writeln!(out, "\n## Raw execution\n\n{}", study.execution);
        for f in &study.execution.failures {
            let _ = writeln!(out, "failure: {f:?}");
        }
        let _ = writeln!(out, "governance: {:?}", study.governance);
    }
    out
}

/// Compares `actual` with `tests/golden/<name>.md`, or rewrites the file
/// when `TRACELENS_BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("{name}.md"));
    if std::env::var_os("TRACELENS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with TRACELENS_BLESS=1)", path.display()));
    if expected != actual {
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "{} drifted at line {}:\n  golden: {:?}\n  actual: {:?}\n\
             re-bless with TRACELENS_BLESS=1 only if the change is intended",
            path.display(),
            line + 1,
            expected.lines().nth(line),
            actual.lines().nth(line),
        );
    }
}

/// Every clean entry point at every job count renders the golden
/// snapshot `name`.
fn clean_entry_points_match(name: &str, mix: ScenarioMix) {
    let ds = dataset(mix);
    let names = names_of(&ds);
    let golden = snapshot(&Study::run(&ds, &config(1), &names), &ds, false);
    check_golden(name, &golden);
    for jobs in JOBS {
        let cfg = config(jobs);
        let plain = Study::run(&ds, &cfg, &names);
        assert_eq!(snapshot(&plain, &ds, false), golden, "run, jobs={jobs}");

        let supervised = Study::run_supervised(&ds, &cfg, &names).unwrap();
        assert!(supervised.execution.is_clean(), "jobs={jobs}");
        assert_eq!(
            snapshot(&supervised, &ds, false),
            golden,
            "run_supervised, jobs={jobs}"
        );

        let governed = Study::run_governed(&ds, &cfg, &names).unwrap();
        assert!(!governed.governance.is_governed());
        assert_eq!(
            snapshot(&governed, &ds, false),
            golden,
            "run_governed, jobs={jobs}"
        );

        // A checkpointed run stores every unit; a second run over the
        // same directory restores them all and still matches.
        let dir = scratch_dir(name);
        let ckpt = StudyConfig {
            checkpoint: Some(dir.clone()),
            ..cfg.clone()
        };
        let first = Study::run_supervised(&ds, &ckpt, &names).unwrap();
        assert_eq!(
            snapshot(&first, &ds, false),
            golden,
            "checkpointed, jobs={jobs}"
        );
        let resumed = Study::run_supervised(&ds, &ckpt, &names).unwrap();
        assert_eq!(resumed.execution.restored, resumed.execution.units);
        assert_eq!(
            snapshot(&resumed, &ds, false),
            golden,
            "restored, jobs={jobs}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn selected_mix_matches_golden_at_every_entry_point_and_job_count() {
    clean_entry_points_match("selected_40", ScenarioMix::Selected);
}

#[test]
fn full_mix_matches_golden_at_every_entry_point_and_job_count() {
    clean_entry_points_match("full_40", ScenarioMix::Full);
}

/// Injected panics quarantine `stream:N` units of the impact pass and
/// `scenario:X` units; the faulted report and execution account are
/// pinned, and a fault-free resume from the faulted run's checkpoint
/// renders the clean golden.
#[test]
fn exec_faulted_run_matches_golden_and_resumes_clean() {
    let ds = dataset(ScenarioMix::Selected);
    let names = names_of(&ds);
    let faults = ExecFaultPlan::new(5).with_panic_rate(0.35);
    let faulted = |jobs: usize, checkpoint: Option<PathBuf>| StudyConfig {
        exec_faults: Some(faults),
        checkpoint,
        ..config(jobs)
    };
    let golden = snapshot(
        &Study::run_supervised(&ds, &faulted(1, None), &names).unwrap(),
        &ds,
        true,
    );
    check_golden("selected_40_faulted", &golden);
    let failures = Study::run_supervised(&ds, &faulted(1, None), &names)
        .unwrap()
        .execution
        .failures;
    assert!(
        failures.iter().any(|f| f.unit.starts_with("stream:")),
        "the plan must quarantine an impact-pass stream unit"
    );
    assert!(
        failures.iter().any(|f| f.unit.starts_with("scenario:")),
        "the plan must quarantine a scenario unit"
    );
    let clean = snapshot(&Study::run(&ds, &config(1), &names), &ds, false);
    for jobs in JOBS {
        let run = Study::run_supervised(&ds, &faulted(jobs, None), &names).unwrap();
        assert_eq!(snapshot(&run, &ds, true), golden, "faulted, jobs={jobs}");

        let dir = scratch_dir("faulted");
        let first = Study::run_supervised(&ds, &faulted(jobs, Some(dir.clone())), &names).unwrap();
        assert_eq!(
            snapshot(&first, &ds, true),
            golden,
            "checkpointed, jobs={jobs}"
        );
        let resume = StudyConfig {
            checkpoint: Some(dir.clone()),
            ..config(jobs)
        };
        let resumed = Study::run_supervised(&ds, &resume, &names).unwrap();
        assert!(resumed.execution.restored > 0, "jobs={jobs}");
        assert!(resumed.execution.failures.is_empty(), "jobs={jobs}");
        assert_eq!(
            snapshot(&resumed, &ds, false),
            clean,
            "resumed, jobs={jobs}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A finite budget under inflated estimates degrades some units onto a
/// truncated view and sheds none; decisions and results are pinned.
#[test]
fn governed_degrade_run_matches_golden() {
    let ds = dataset(ScenarioMix::Selected);
    let names = names_of(&ds);
    let governed = |jobs: usize| StudyConfig {
        govern: GovernPolicy::with_budget_mb(1).on_over_budget(OverBudgetAction::Degrade),
        mem_faults: Some(MemFaultPlan::new(3).with_rate(0.5).with_factor(64)),
        ..config(jobs)
    };
    let golden = snapshot(
        &Study::run_governed(&ds, &governed(1), &names).unwrap(),
        &ds,
        true,
    );
    check_golden("selected_40_degraded", &golden);
    for jobs in JOBS {
        let run = Study::run_governed(&ds, &governed(jobs), &names).unwrap();
        assert!(run.governance.degraded > 0, "jobs={jobs}");
        assert_eq!(snapshot(&run, &ds, true), golden, "degraded, jobs={jobs}");
    }
}
