//! End-to-end tests of the `tracelens` binary: the full
//! simulate → persist → analyze workflow through the real executable.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tracelens(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracelens"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn workload_file() -> PathBuf {
    let dir = std::env::temp_dir().join("tracelens-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("workload.tlt")
}

#[test]
fn full_workflow_through_the_binary() {
    let file = workload_file();
    let path = file.to_str().expect("utf-8 path");

    // simulate → .tlt
    let out = tracelens(&[
        "simulate",
        "-o",
        path,
        "--traces",
        "40",
        "--seed",
        "7",
        "--mix",
        "BrowserTabCreate",
    ]);
    assert!(out.status.success(), "simulate failed: {out:?}");

    // info
    let out = tracelens(&["info", path]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("traces      : 40"), "{text}");
    assert!(text.contains("BrowserTabCreate"));

    // impact
    let out = tracelens(&["impact", path]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("IA_wait"), "{text}");

    // blame
    let out = tracelens(&["blame", path]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("component wait by module:"), "{text}");

    // causality
    let out = tracelens(&[
        "causality",
        path,
        "--scenario",
        "BrowserTabCreate",
        "--top",
        "2",
    ]);
    assert!(out.status.success(), "causality failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("contrast patterns"), "{text}");
    assert!(text.contains("wait    :"), "{text}");

    // locate rank 1
    let out = tracelens(&[
        "locate",
        path,
        "--scenario",
        "BrowserTabCreate",
        "--rank",
        "1",
    ]);
    assert!(out.status.success(), "locate failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("concrete incidents"), "{text}");

    // baselines
    let out = tracelens(&["baselines", path, "--top", "3"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("%cpu"), "{text}");
    assert!(text.contains("costly callstacks"), "{text}");
}

#[test]
fn run_subcommand_executes_the_dsl() {
    let script = std::env::temp_dir().join("tracelens-cli-test-fig1.tsim");
    let asset = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/figure1.tsim");
    std::fs::copy(asset, &script).expect("copy asset");
    let out = tracelens(&["run", script.to_str().unwrap()]);
    assert!(out.status.success(), "run failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("BrowserTabCreate"), "{text}");
}

#[test]
fn validate_reports_violations_and_sanitize_recovers() {
    use tracelens::model::{ScenarioInstance, ThreadId, TimeNs, TraceId};
    use tracelens::prelude::*;

    let dir = std::env::temp_dir().join("tracelens-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");

    // A clean data set validates with zero exit.
    let clean_path = dir.join("clean.tlt");
    let ds = DatasetBuilder::new(3)
        .traces(10)
        .mix(ScenarioMix::Only(vec!["BrowserTabCreate".into()]))
        .build();
    let f = std::fs::File::create(&clean_path).expect("create");
    ds.write_text(std::io::BufWriter::new(f)).expect("write");
    let out = tracelens(&["validate", clean_path.to_str().unwrap()]);
    assert!(out.status.success(), "clean validate failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("no violations"), "{text}");

    // Corrupt it: an instance referencing a stream that does not exist.
    let corrupt_path = dir.join("corrupt.tlt");
    let mut bad = ds.clone();
    bad.instances.push(ScenarioInstance {
        trace: TraceId(bad.streams.len() as u32 + 2),
        scenario: bad.scenarios[0].name,
        tid: ThreadId(1),
        t0: TimeNs(0),
        t1: TimeNs(1),
    });
    let f = std::fs::File::create(&corrupt_path).expect("create");
    bad.write_text(std::io::BufWriter::new(f)).expect("write");
    let path = corrupt_path.to_str().unwrap();

    // validate: nonzero exit, per-kind counts, every violation listed.
    let out = tracelens(&["validate", path]);
    assert!(!out.status.success(), "corrupt validate must fail");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 violations"), "{text}");
    assert!(text.contains("instance_without_stream"), "{text}");

    // --strict: analysis refuses to run.
    let out = tracelens(&["impact", path, "--strict"]);
    assert!(!out.status.success(), "--strict must fail on corrupt input");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--sanitize"), "{err}");

    // --sanitize: analysis runs on the quarantined survivor.
    let out = tracelens(&["impact", path, "--sanitize"]);
    assert!(out.status.success(), "--sanitize failed: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1 instances quarantined"), "{err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("IA_wait"), "{text}");

    // Default mode still warns and proceeds.
    let out = tracelens(&["impact", path]);
    assert!(out.status.success(), "default mode proceeds: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("warning"), "{err}");

    // The two modes together are rejected.
    let out = tracelens(&["impact", path, "--strict", "--sanitize"]);
    assert!(!out.status.success());
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let out = tracelens(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "{err}");

    let out = tracelens(&["impact", "/nonexistent/file.tlt"]);
    assert!(!out.status.success());

    let out = tracelens(&["causality", "--scenario", "X"]);
    assert!(!out.status.success());
}

#[test]
fn help_prints_usage() {
    let out = tracelens(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("causality"));
    assert!(text.contains("regress"));
}

/// The 40-trace selected-mix corpus the CLI goldens run over, simulated
/// once per test process into a private file and renamed into place:
/// the corpus is deterministic, so concurrent test processes all rename
/// the same bytes onto one path, and no run leaves a file of its own.
fn golden_corpus() -> &'static str {
    static PATH: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    PATH.get_or_init(|| {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
        let path = dir.join("cli-golden-selected-40.tlt");
        let private = dir.join(format!("cli-golden-selected-40.{}.tlt", std::process::id()));
        let out = tracelens(&[
            "simulate",
            "-o",
            private.to_str().expect("utf-8 path"),
            "--traces",
            "40",
            "--seed",
            "2014",
            "--mix",
            "selected",
        ]);
        assert!(out.status.success(), "simulate failed: {out:?}");
        std::fs::rename(&private, &path).expect("rename corpus into place");
        path.to_str().expect("utf-8 path").to_owned()
    })
}

/// Runs `args` over the golden corpus at jobs 1, 2 and 8 and compares
/// each stdout with `tests/golden/<name>.txt`, or rewrites the file
/// from the jobs-1 run when `TRACELENS_BLESS` is set:
///
/// ```sh
/// TRACELENS_BLESS=1 cargo test -p tracelens-chaos --test cli golden
/// ```
fn check_cli_golden(name: &str, args: &[&str]) {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("{name}.txt"));
    let bless = std::env::var_os("TRACELENS_BLESS").is_some();
    for jobs in ["1", "2", "8"] {
        let mut argv = vec![args[0], golden_corpus()];
        argv.extend_from_slice(&args[1..]);
        argv.extend_from_slice(&["--jobs", jobs]);
        let out = tracelens(&argv);
        assert!(out.status.success(), "{argv:?} failed: {out:?}");
        let actual = String::from_utf8(out.stdout).expect("utf-8 stdout");
        if bless && jobs == "1" {
            std::fs::write(&golden, &actual).expect("write golden");
            continue;
        }
        let expected = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("{}: {e} (bless with TRACELENS_BLESS=1)", golden.display()));
        assert_eq!(actual, expected, "{name} drifted at --jobs {jobs}");
    }
}

#[test]
fn golden_impact_output() {
    check_cli_golden("cli_impact", &["impact"]);
}

#[test]
fn golden_impact_scenario_output() {
    check_cli_golden(
        "cli_impact_scenario",
        &["impact", "--scenario", "WebPageNavigation"],
    );
}

#[test]
fn golden_impact_components_output() {
    check_cli_golden(
        "cli_impact_components",
        &["impact", "--components", "f*.sys"],
    );
}

#[test]
fn golden_causality_output() {
    check_cli_golden(
        "cli_causality",
        &["causality", "--scenario", "WebPageNavigation"],
    );
}

#[test]
fn golden_causality_unreduced_output() {
    check_cli_golden(
        "cli_causality_unreduced",
        &[
            "causality",
            "--scenario",
            "WebPageNavigation",
            "--no-reduce",
            "--k",
            "3",
        ],
    );
}

#[test]
fn shared_file_flags_are_accepted_by_every_command_reading_file() {
    let corpus = golden_corpus();
    for args in [
        ["blame", "--jobs", "2", corpus],
        ["validate", "--jobs", "1", corpus],
    ] {
        let out = tracelens(&args);
        assert!(out.status.success(), "{args:?} failed: {out:?}");
    }
}

#[test]
fn unknown_options_and_stray_arguments_are_errors() {
    let corpus = golden_corpus();
    let out = tracelens(&["report", corpus, "--degrde"]);
    assert!(!out.status.success(), "a misspelt flag must not be ignored");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--degrde"), "{err}");
    assert!(
        out.stdout.is_empty(),
        "no report for a rejected command line"
    );

    let out = tracelens(&["impact", corpus, "extra"]);
    assert!(!out.status.success(), "a stray argument must be an error");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("extra"), "{err}");
}
