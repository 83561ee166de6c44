//! The impact-analysis report and its derived metrics.

use std::collections::BTreeMap;
use std::fmt;
use tracelens_model::{ScenarioName, TimeNs, TraceId};

/// The impact accounting of one scenario instance's Wait Graph: every
/// number the [`ImpactReport`] of any group of instances is reduced
/// from ([`ImpactReport::from_records`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceRecord {
    /// The trace the instance ran in; distinct waits are unioned per
    /// trace.
    pub trace: TraceId,
    /// The instance's scenario.
    pub scenario: ScenarioName,
    /// The instance's contrast class under its scenario's thresholds:
    /// `Some(true)` fast, `Some(false)` slow, `None` in the margin (or
    /// its scenario defines no thresholds).
    pub class: Option<bool>,
    /// The instance's duration.
    pub d_scn: TimeNs,
    /// Running time of the chosen components in the graph.
    pub d_run: TimeNs,
    /// Top-level wait time of the chosen components in the graph.
    pub d_wait: TimeNs,
    /// Wait-Graph nodes visited while accounting.
    pub nodes_visited: usize,
    /// Wall-clock intervals of the counted top-level waits.
    pub intervals: Vec<(TimeNs, TimeNs)>,
}

/// Output of impact analysis over a set of scenario instances
/// (paper §3.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImpactReport {
    /// `D_scn`: aggregated execution time of all analyzed instances.
    pub d_scn: TimeNs,
    /// `D_wait`: aggregated top-level wait time of the chosen components
    /// across all instance Wait Graphs (duplicates across graphs count).
    pub d_wait: TimeNs,
    /// `D_run`: aggregated running time of the chosen components.
    pub d_run: TimeNs,
    /// `D_waitdist`: as `D_wait`, but each distinct wait event counts
    /// only once across all Wait Graphs.
    pub d_wait_dist: TimeNs,
    /// Number of scenario instances analyzed.
    pub instances: usize,
    /// Number of Wait-Graph nodes visited (diagnostics).
    pub nodes_visited: usize,
}

impl ImpactReport {
    /// `IA_run = D_run / D_scn`.
    pub fn ia_run(&self) -> f64 {
        self.d_run.ratio(self.d_scn)
    }

    /// `IA_wait = D_wait / D_scn`.
    pub fn ia_wait(&self) -> f64 {
        self.d_wait.ratio(self.d_scn)
    }

    /// `IA_opt = (D_wait − D_waitdist) / D_scn` — the share of waiting
    /// introduced by cost propagation across instances; an upper bound on
    /// the optimization potential.
    pub fn ia_opt(&self) -> f64 {
        self.d_wait
            .checked_sub(self.d_wait_dist)
            .map(|extra| extra.ratio(self.d_scn))
            .unwrap_or(0.0)
    }

    /// `D_wait / D_waitdist`: how many scenario instances each distinct
    /// second of component waiting affects on average (the paper measures
    /// ≈ 3.5 for device drivers).
    pub fn wait_amplification(&self) -> f64 {
        self.d_wait.ratio(self.d_wait_dist)
    }

    /// Component cost share `(D_wait + D_run) / D_scn` — the "Driver
    /// Cost" column of the paper's Table 2 when restricted to a slow
    /// class.
    pub fn component_cost_share(&self) -> f64 {
        (self.d_wait + self.d_run).ratio(self.d_scn)
    }

    /// Reduces a group of instance records to the group's report: the
    /// per-instance metrics add up, and `D_waitdist` is the length of
    /// the union of the group's counted wait intervals, trace by trace.
    /// The result does not depend on the order of `records`.
    pub fn from_records<'r>(records: impl IntoIterator<Item = &'r InstanceRecord>) -> ImpactReport {
        let mut report = ImpactReport::default();
        let mut intervals: BTreeMap<TraceId, Vec<(TimeNs, TimeNs)>> = BTreeMap::new();
        for r in records {
            report.d_scn += r.d_scn;
            report.d_wait += r.d_wait;
            report.d_run += r.d_run;
            report.instances += 1;
            report.nodes_visited += r.nodes_visited;
            intervals
                .entry(r.trace)
                .or_default()
                .extend_from_slice(&r.intervals);
        }
        report.d_wait_dist = intervals.into_values().map(union_length).sum();
        report
    }
}

/// Total length of the union of half-open intervals.
fn union_length(mut intervals: Vec<(TimeNs, TimeNs)>) -> TimeNs {
    intervals.sort_unstable();
    let mut total = TimeNs::ZERO;
    let mut current: Option<(TimeNs, TimeNs)> = None;
    for (s, e) in intervals {
        if e <= s {
            continue;
        }
        match current {
            None => current = Some((s, e)),
            Some((cs, ce)) => {
                if s <= ce {
                    current = Some((cs, ce.max(e)));
                } else {
                    total += ce - cs;
                    current = Some((s, e));
                }
            }
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

impl fmt::Display for ImpactReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "instances          : {}", self.instances)?;
        writeln!(f, "D_scn              : {}", self.d_scn)?;
        writeln!(f, "D_wait             : {}", self.d_wait)?;
        writeln!(f, "D_run              : {}", self.d_run)?;
        writeln!(f, "D_waitdist         : {}", self.d_wait_dist)?;
        writeln!(f, "IA_wait            : {:.1}%", self.ia_wait() * 100.0)?;
        writeln!(f, "IA_run             : {:.1}%", self.ia_run() * 100.0)?;
        writeln!(f, "IA_opt             : {:.1}%", self.ia_opt() * 100.0)?;
        write!(f, "Dwait/Dwaitdist    : {:.2}", self.wait_amplification())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ImpactReport {
        ImpactReport {
            d_scn: TimeNs(1000),
            d_wait: TimeNs(364),
            d_run: TimeNs(16),
            d_wait_dist: TimeNs(104),
            instances: 10,
            nodes_visited: 100,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.ia_wait() - 0.364).abs() < 1e-12);
        assert!((r.ia_run() - 0.016).abs() < 1e-12);
        assert!((r.ia_opt() - 0.260).abs() < 1e-12);
        assert!((r.wait_amplification() - 3.5).abs() < 1e-12);
        assert!((r.component_cost_share() - 0.380).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = ImpactReport::default();
        assert_eq!(r.ia_wait(), 0.0);
        assert_eq!(r.ia_run(), 0.0);
        assert_eq!(r.ia_opt(), 0.0);
        assert_eq!(r.wait_amplification(), 0.0);
    }

    fn record(trace: u32, d_wait: u64, intervals: &[(u64, u64)]) -> InstanceRecord {
        InstanceRecord {
            trace: TraceId(trace),
            scenario: ScenarioName::new("S"),
            class: None,
            d_scn: TimeNs(100),
            d_run: TimeNs(1),
            d_wait: TimeNs(d_wait),
            nodes_visited: 3,
            intervals: intervals
                .iter()
                .map(|&(s, e)| (TimeNs(s), TimeNs(e)))
                .collect(),
        }
    }

    #[test]
    fn from_records_adds_metrics_and_unions_waits_per_trace() {
        let records = [
            record(0, 10, &[(0, 10)]),
            record(0, 10, &[(5, 15)]),
            record(1, 10, &[(5, 15)]),
        ];
        let r = ImpactReport::from_records(&records);
        assert_eq!(r.d_scn, TimeNs(300));
        assert_eq!(r.d_wait, TimeNs(30));
        assert_eq!(r.d_run, TimeNs(3));
        assert_eq!(r.instances, 3);
        assert_eq!(r.nodes_visited, 9);
        // Trace 0: 0..15 once; trace 1: 5..15 — overlaps across traces
        // are distinct waits.
        assert_eq!(r.d_wait_dist, TimeNs(25));
        let reversed: Vec<&InstanceRecord> = records.iter().rev().collect();
        assert_eq!(ImpactReport::from_records(reversed), r);
        assert_eq!(ImpactReport::from_records(&[]), ImpactReport::default());
    }

    #[test]
    fn union_length_merges_overlaps() {
        let iv = vec![
            (TimeNs(0), TimeNs(10)),
            (TimeNs(5), TimeNs(15)),
            (TimeNs(20), TimeNs(25)),
            (TimeNs(25), TimeNs(30)), // touching: merges (half-open)
            (TimeNs(50), TimeNs(50)), // empty: ignored
        ];
        assert_eq!(union_length(iv), TimeNs(25));
        assert_eq!(union_length(Vec::new()), TimeNs::ZERO);
    }

    #[test]
    fn display_contains_percentages() {
        let text = report().to_string();
        assert!(text.contains("IA_wait"));
        assert!(text.contains("36.4%"));
        assert!(text.contains("3.50"));
    }
}
