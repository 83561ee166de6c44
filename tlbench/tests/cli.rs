//! End-to-end checks of the benchmark binary on a small corpus.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use tracelens::obs::json::{parse, Value};

const TRACES: &str = "60";

fn work_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("tlbench-{name}"))
}

fn run(name: &str, workload: &str, trace: u8, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tlbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--traces", TRACES])
        .arg("--work-dir")
        .arg(work_dir(name))
        .args(extra)
        .output()
        .expect("the benchmark binary runs")
}

/// The last stdout line, parsed.
fn result(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .expect("the benchmark prints a result");
    parse(last).expect("the result line is JSON")
}

fn metric(result: &Value, name: &str) -> f64 {
    match result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
    {
        Some(Value::Float(v)) => *v,
        other => panic!("metric {name} has no numeric value: {other:?}"),
    }
}

/// The names (and units, where given) of the entries BENCHMARK.json
/// lists under `key`.
fn declared(key: &str) -> Vec<(String, Option<String>)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Value::as_str).map(str::to_owned);
            (field("name").expect("a name"), field("unit"))
        })
        .collect()
}

#[test]
fn small_run_prints_every_declared_metric_with_its_unit() {
    for (workload, _) in declared("workloads") {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let out = run(&format!("all-{workload}-{trace}"), &workload, trace, &[]);
            assert!(
                out.status.success(),
                "{workload} --trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = result(&out);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            let metrics = match result.get("metrics") {
                Some(Value::Obj(m)) => m,
                other => panic!("metrics is not an object: {other:?}"),
            };
            let names: Vec<&String> = metrics.keys().collect();
            let expected = declared(key);
            assert_eq!(names.len(), expected.len(), "{workload} {key}: {names:?}");
            for (name, unit) in &expected {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad metric name {name}"
                );
                let got = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(got.get("unit").and_then(Value::as_str), unit.as_deref());
                assert!(metric(&result, name).is_finite(), "{name} is not finite");
            }
        }
    }
}

#[test]
fn planted_mismatch_fails_the_run() {
    for workload in ["report-selected-warm", "ingest-full"] {
        let out = run(
            &format!("plant-{workload}"),
            workload,
            0,
            &["--plant-mismatch"],
        );
        assert!(
            !out.status.success(),
            "{workload}: a mismatch must exit nonzero"
        );
        let result = result(&out);
        assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
        assert!(result.get("failed").and_then(Value::as_u64).unwrap_or(0) > 0);
        assert!(
            metric(&result, "ok_ratio") < 1.0,
            "{workload}: failed passes count"
        );
    }
}

#[test]
fn jobs1_counts_repeat_exactly() {
    // Counted on the jobs=1 study and the layer sweep; the pool counters
    // come from the jobs=2 study and depend on scheduling.
    const COUNTS: &[&str] = &[
        "store.cache_hits",
        "store.cache_fallbacks",
        "waitgraph.nodes",
        "waitgraph.graphs_per_instance",
        "waitgraph.indices_per_stream",
        "waitgraph.indexed_events_per_event",
        "impact.nodes_visited",
        "causality.patterns",
    ];
    let first = result(&run("repeat-a", "report-full-cold", 1, &[]));
    let second = result(&run("repeat-b", "report-full-cold", 1, &[]));
    for name in COUNTS {
        assert_eq!(metric(&first, name), metric(&second, name), "{name}");
    }
    assert!(metric(&first, "waitgraph.nodes") > 0.0);
    assert_eq!(metric(&first, "store.cache_fallbacks"), 1.0);
}
