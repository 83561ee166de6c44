//! Integration tests for the chaos campaign engine
//! (`tracelens-chaos`): determinism across worker counts, clean
//! campaigns passing every oracle, and the full
//! detect → minimize → replay loop on a planted bug.

use tracelens_chaos::{
    check_all, repro, run_campaign, run_config, sample_campaign, CampaignOptions, FaultPlane,
};
use tracelens_obs::{CollectingSink, Telemetry};

fn options(runs: usize) -> CampaignOptions {
    CampaignOptions {
        seed: 9,
        runs,
        ..CampaignOptions::default()
    }
}

#[test]
fn campaign_is_byte_identical_across_job_counts() {
    let renders: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&jobs| {
            let opts = CampaignOptions { jobs, ..options(8) };
            run_campaign(&opts, &Telemetry::noop()).render()
        })
        .collect();
    assert_eq!(renders[0], renders[1], "jobs 1 vs 2");
    assert_eq!(renders[0], renders[2], "jobs 1 vs 8");
}

#[test]
fn concurrent_same_seed_campaigns_print_identical_output() {
    // Same seed, same process, at the same time: every scratch
    // directory (checkpoints, caches) must be private to its run.
    let renders: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| s.spawn(|| run_campaign(&options(8), &Telemetry::noop()).render()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(renders[0], renders[1]);
    assert_eq!(
        renders[0],
        run_campaign(&options(8), &Telemetry::noop()).render()
    );
}

#[test]
fn clean_campaign_has_zero_violations() {
    let report = run_campaign(&options(8), &Telemetry::noop());
    assert_eq!(report.records.len(), 8);
    assert_eq!(report.violations(), 0, "{}", report.render());
    assert!(report.minimized.is_none());
    // Every run is judged by at least the panic oracle; most runs
    // produce more evidence (coverage, report shape, plane checks).
    assert!(report.records.iter().all(|r| r.checks >= 1));
}

#[test]
fn campaign_reports_telemetry() {
    let (telemetry, sink) = CollectingSink::telemetry();
    run_campaign(&options(4), &telemetry);
    let report = sink.report();
    assert_eq!(report.metrics.counters["chaos.runs"], 4);
    assert!(report.metrics.counters["chaos.oracle_checks"] >= 4);
    assert_eq!(report.metrics.counters["chaos.violations"], 0);
    assert!(report.span_names().contains(&"chaos"));
}

#[test]
fn planted_bug_is_found_minimized_and_replayable() {
    // Find the first sampled config arming both corruption and exec —
    // the pair the planted accounting bug requires — and run the
    // campaign just long enough to include it.
    let configs = sample_campaign(9, 64, 12, &FaultPlane::ALL);
    let first = configs
        .iter()
        .position(|c| c.corruption_active() && c.exec_active())
        .expect("seed 9 samples a corruption+exec config");
    let opts = CampaignOptions {
        runs: first + 1,
        inject_known_bug: true,
        ..options(first + 1)
    };
    let report = run_campaign(&opts, &Telemetry::noop());
    assert!(report.violations() > 0, "planted bug must be detected");
    let minimized = report.minimized.expect("violation must be minimized");
    assert_eq!(minimized.oracle, "coverage_conserved");
    assert!(minimized.steps > 0);
    let planes = minimized.config.active_planes();
    assert!(
        planes.len() <= 2,
        "minimal repro must have at most 2 active planes, got {planes:?}"
    );
    assert!(minimized.config.corruption_active() && minimized.config.exec_active());
    assert!(minimized.config.traces <= 12);

    // The repro round-trips through its TOML encoding and replays to
    // the same violation — and passes once the bug is "fixed".
    let text = repro::render_repro(&minimized);
    let replayed = repro::parse_repro(&text).expect("repro parses");
    assert_eq!(replayed, minimized.config);
    let buggy = run_config(&replayed, true);
    let violations = check_all(0, &buggy);
    assert!(
        violations.iter().any(|v| v.oracle == "coverage_conserved"),
        "replay must reproduce the violation"
    );
    let fixed = run_config(&replayed, false);
    assert!(check_all(0, &fixed).is_empty(), "fixed replay must pass");
}

#[test]
fn single_plane_campaigns_pass() {
    // Each plane also holds up alone — a failure here localizes the
    // offending plane immediately.
    for plane in FaultPlane::ALL {
        let opts = CampaignOptions {
            runs: 3,
            planes: vec![plane],
            ..options(3)
        };
        let report = run_campaign(&opts, &Telemetry::noop());
        assert_eq!(
            report.violations(),
            0,
            "plane {plane} violated:\n{}",
            report.render()
        );
    }
}
