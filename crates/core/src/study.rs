//! The full-evaluation driver: the paper's workflow over one data set.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use tracelens_causality::{CausalityAnalysis, CausalityConfig, CausalityError, CausalityReport};
use tracelens_faults::{ExecFaultPlan, MemFaultPlan};
use tracelens_impact::{ImpactAnalyzer, ImpactReport};
use tracelens_model::{ComponentFilter, Dataset, SanitizeReport, ScenarioName, TimeNs};
use tracelens_obs::{stage, Telemetry};
use tracelens_pool::{
    plan_admission, Admission, Degradation, ExecutionReport, GovernPolicy, GovernReport, Pool,
    SupervisePolicy, UnitMeta,
};

use crate::pass::{scenario_unit, Pass, Supervision};

/// Stage label of per-scenario supervised work units.
pub const SCENARIO_STAGE: &str = "scenario";

/// Stage label execution-fault plans are consulted with for faults
/// armed inside the causality analyzer (via its analysis probe).
pub const CAUSALITY_STAGE: &str = "causality";

/// Modeled live-heap bytes per stream event for the indexing side of a
/// scenario unit (per-thread event ids and start times, wait/unwait
/// pairs, effective ends: 24 bytes, plus a slot per thread — see
/// `StreamIndex`'s `HeapSize` impl). Deliberately an upper bound:
/// admission must never under-estimate.
pub const INDEX_BYTES_PER_EVENT: u64 = 32;

/// Modeled live-heap bytes per in-scope stream event for the wait
/// graphs and aggregated wait graphs a scenario instance can build
/// (node, children, example tags). Again an upper bound — real graphs
/// only materialize nodes for the instance's window.
pub const GRAPH_BYTES_PER_EVENT: u64 = 96;

/// Segment bound degraded units analyze with (vs.
/// [`tracelens_causality::DEFAULT_SEGMENT_BOUND`]): shorter segments
/// bound the pattern-enumeration frontier, the causality stage's
/// dominant allocation.
pub const DEGRADED_SEGMENT_BOUND: usize = 2;

/// Modeled live-heap cost of one per-scenario analysis unit, in bytes.
///
/// The estimate is *cheap* (no allocator hooks — it only walks instance
/// and stream lengths), *monotone* in the unit's input, and an upper
/// bound of what the unit's indexes and graphs actually retain (the
/// `HeapSize` measurements in the governance tests pin this down). It
/// charges every touched stream once for indexing and every instance
/// for the graphs built over its stream.
pub fn estimated_unit_bytes(dataset: &Dataset, name: &ScenarioName) -> u64 {
    let mut touched: BTreeSet<u32> = BTreeSet::new();
    let mut graph_events: u64 = 0;
    for i in &dataset.instances {
        if i.scenario == *name {
            touched.insert(i.trace.0);
            graph_events = graph_events.saturating_add(
                dataset
                    .streams
                    .get(i.trace.0 as usize)
                    .map_or(0, |s| s.len() as u64),
            );
        }
    }
    let index_events: u64 = touched
        .iter()
        .map(|&t| {
            dataset
                .streams
                .get(t as usize)
                .map_or(0, |s| s.len() as u64)
        })
        .sum();
    index_events
        .saturating_mul(INDEX_BYTES_PER_EVENT)
        .saturating_add(graph_events.saturating_mul(GRAPH_BYTES_PER_EVENT))
}

/// The budget-bounded slice of `dataset` a degraded unit analyzes: the
/// global time range truncated at `retain_per_mille` thousandths of its
/// span. Integer arithmetic over the recorded range keeps the cut — and
/// therefore the degraded results — deterministic at every job count.
fn degraded_view(dataset: &Dataset, degradation: &Degradation) -> Dataset {
    let events = dataset.streams.iter().flat_map(|s| s.events());
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for e in events {
        lo = lo.min(e.t.0);
        hi = hi.max(e.t.0);
    }
    if lo > hi {
        (lo, hi) = (0, 0);
    }
    let span = hi - lo;
    let keep = span.saturating_mul(degradation.retain_per_mille as u64) / 1000;
    dataset.truncated(TimeNs(lo + keep))
}

/// Sanitizes `dataset` in a `sanitize` span, reporting what was repaired
/// and quarantined.
///
/// # Errors
///
/// [`StudyError::NoAnalyzableInstances`] when every instance of a
/// non-empty input is quarantined.
fn sanitize_traced(
    dataset: &Dataset,
    telemetry: &Telemetry,
) -> Result<(Dataset, SanitizeReport), StudyError> {
    let (clean, report) = {
        let _span = telemetry.span(stage::SANITIZE);
        dataset.sanitize()
    };
    if telemetry.enabled() {
        telemetry.count("sanitize.repaired", report.repaired() as u64);
        let traces = report.quarantined_traces as u64;
        telemetry.count("sanitize.quarantined_traces", traces);
        let instances = report.quarantined_instances as u64;
        telemetry.count("sanitize.quarantined_instances", instances);
    }
    if clean.instances.is_empty() && report.input_instances > 0 {
        return Err(StudyError::NoAnalyzableInstances {
            input_instances: report.input_instances,
            quarantined_instances: report.quarantined_instances,
        });
    }
    Ok((clean, report))
}

/// Configuration of a [`Study`].
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Component selection (device drivers by default).
    pub components: ComponentFilter,
    /// Causality configuration (segment bound, reduction).
    pub causality: CausalityConfig,
    /// Worker threads for the analysis stages: `1` runs fully
    /// sequential, `0` (the default) picks `TRACELENS_JOBS` or the
    /// machine's available parallelism. Results are byte-identical at
    /// every setting.
    pub jobs: usize,
    /// Sanitize the data set first: repair what is repairable,
    /// quarantine what is not, and analyze the clean survivor. The
    /// study then carries the [`SanitizeReport`] and partial
    /// [`Study::coverage`]. Off by default.
    pub sanitize: bool,
    /// Supervision policy: per-unit soft deadline and panic-retry bound.
    pub supervise: SupervisePolicy,
    /// Deterministic execution-fault injection (testing/CI only): arms
    /// panics and stalls inside supervised work units. `None` — the
    /// default — injects nothing.
    pub exec_faults: Option<ExecFaultPlan>,
    /// Checkpoint directory: completed units are stored there and
    /// restored on re-runs over the same (sanitized) inputs. `None`
    /// disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Memory-governance policy: an explicit live-bytes budget
    /// per-scenario units are admitted against, and what happens to
    /// units that cannot fit. The default (unlimited) makes governance
    /// a no-op — byte-identical results.
    pub govern: GovernPolicy,
    /// Deterministic resource-pressure injection (testing/CI only):
    /// inflates unit cost *estimates* so the admission controller sees
    /// overload without the corpus having to provide it. The units'
    /// actual work is untouched. `None` — the default — injects
    /// nothing.
    pub mem_faults: Option<MemFaultPlan>,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            components: ComponentFilter::suffix(".sys"),
            causality: CausalityConfig::default(),
            jobs: 0,
            sanitize: false,
            supervise: SupervisePolicy::default(),
            exec_faults: None,
            checkpoint: None,
            govern: GovernPolicy::unlimited(),
            mem_faults: None,
        }
    }
}

/// Failures of [`Study::run`].
///
/// Note the asymmetry with [`tracelens_pool::UnitFailure`]: a failed
/// *unit* degrades the study (it completes with an execution report);
/// a [`StudyError`] means no meaningful study exists at all.
#[derive(Debug)]
pub enum StudyError {
    /// Sanitization quarantined every scenario instance: there is
    /// nothing left to analyze, and rendering an all-zero report would
    /// misread as "analyzed and found nothing".
    NoAnalyzableInstances {
        /// Scenario instances in the (corrupt) input.
        input_instances: usize,
        /// Instances quarantined directly by sanitization (the rest
        /// were lost with their quarantined traces).
        quarantined_instances: usize,
    },
    /// The checkpoint directory could not be read or written.
    Checkpoint {
        /// The configured checkpoint directory.
        dir: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::NoAnalyzableInstances {
                input_instances,
                quarantined_instances,
            } => write!(
                f,
                "no analyzable instances: sanitization quarantined all {input_instances} \
                 input instances ({quarantined_instances} directly, the rest with their traces)"
            ),
            StudyError::Checkpoint { dir, source } => {
                write!(f, "checkpoint {} unusable: {source}", dir.display())
            }
        }
    }
}

impl std::error::Error for StudyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StudyError::Checkpoint { source, .. } => Some(source),
            StudyError::NoAnalyzableInstances { .. } => None,
        }
    }
}

/// Per-scenario results of a study.
#[derive(Debug, Clone)]
pub struct ScenarioStudy {
    /// Impact restricted to this scenario's instances.
    pub impact: ImpactReport,
    /// Impact restricted to this scenario's *slow-class* instances
    /// (the paper's Table-2 "Driver Cost" scope).
    pub slow_impact: ImpactReport,
    /// Causality result, or the reason it could not run (e.g. an empty
    /// contrast class).
    pub causality: Result<CausalityReport, CausalityError>,
}

/// How much of the input data set the study's numbers actually cover.
///
/// A study over pristine input covers everything. A study over
/// sanitized input ([`StudyConfig::sanitize`]) covers only what survived
/// quarantine, and every reported metric must be read against these
/// fractions — 80% coverage means the impact and causality numbers
/// describe 80% of the recorded instances, not the machine population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// Trace streams in the input data set.
    pub total_traces: usize,
    /// Trace streams the analyses actually saw.
    pub analyzed_traces: usize,
    /// Scenario instances in the input data set.
    pub total_instances: usize,
    /// Scenario instances the analyses actually saw.
    pub analyzed_instances: usize,
    /// Trace streams quarantined by sanitization.
    pub quarantined_traces: usize,
    /// Scenario instances quarantined by sanitization (directly — not
    /// counting instances lost with a quarantined trace).
    pub quarantined_instances: usize,
    /// Individual repairs sanitization applied to surviving data.
    pub repaired: usize,
    /// Work units quarantined by *supervised execution* (panics, missed
    /// deadlines, over-budget sheds) — the execution-layer counterpart
    /// of the sanitize counts above.
    pub failed_units: usize,
    /// Work units the memory governor ran on a bounded input slice:
    /// their numbers cover only part of their scenario's data. Always
    /// `0` without a finite budget.
    pub degraded_units: usize,
    /// Work units the memory governor refused to run at all (also
    /// counted in `failed_units` via their quarantine record). Always
    /// `0` without a finite budget.
    pub shed_units: usize,
}

impl Coverage {
    /// Full coverage over `dataset`: nothing quarantined, nothing
    /// repaired. What an unsanitized study starts from.
    pub fn full(dataset: &Dataset) -> Coverage {
        Coverage {
            total_traces: dataset.streams.len(),
            analyzed_traces: dataset.streams.len(),
            total_instances: dataset.instances.len(),
            analyzed_instances: dataset.instances.len(),
            quarantined_traces: 0,
            quarantined_instances: 0,
            repaired: 0,
            failed_units: 0,
            degraded_units: 0,
            shed_units: 0,
        }
    }

    /// Coverage implied by a [`SanitizeReport`].
    pub fn from_sanitize(report: &SanitizeReport) -> Coverage {
        Coverage {
            total_traces: report.input_traces,
            analyzed_traces: report.input_traces - report.quarantined_traces,
            total_instances: report.input_instances,
            analyzed_instances: report.input_instances - report.quarantined_instances,
            quarantined_traces: report.quarantined_traces,
            quarantined_instances: report.quarantined_instances,
            repaired: report.repaired(),
            failed_units: 0,
            degraded_units: 0,
            shed_units: 0,
        }
    }

    /// Fraction of input instances the study covers, in `[0, 1]`
    /// (`1.0` for an empty input).
    pub fn fraction(&self) -> f64 {
        if self.total_instances == 0 {
            1.0
        } else {
            self.analyzed_instances as f64 / self.total_instances as f64
        }
    }

    /// `true` when every input trace and instance was analyzed.
    pub fn is_full(&self) -> bool {
        self.analyzed_traces == self.total_traces && self.analyzed_instances == self.total_instances
    }
}

/// The paper's end-to-end evaluation over a data set: global impact
/// analysis (§5.1) plus per-scenario causality analysis (§5.2).
#[derive(Debug, Clone)]
pub struct Study {
    /// Impact analysis over all instances.
    pub impact: ImpactReport,
    /// Per-scenario results, keyed by scenario name.
    pub scenarios: BTreeMap<ScenarioName, ScenarioStudy>,
    /// How much of the input these results cover (full unless the study
    /// sanitized corrupt input).
    pub coverage: Coverage,
    /// What sanitization repaired and quarantined; `None` unless
    /// [`StudyConfig::sanitize`] was set.
    pub sanitize: Option<SanitizeReport>,
    /// What supervised execution completed and what it quarantined.
    pub execution: ExecutionReport,
    /// What the memory governor decided per unit. Ungoverned (and
    /// empty) unless the study ran under a finite
    /// [`StudyConfig::govern`] budget.
    pub governance: GovernReport,
}

impl Study {
    /// Runs the paper's workflow over `dataset` for the scenarios in
    /// `names` (typically the eight selected evaluation scenarios).
    ///
    /// One execution path: sanitize (with [`StudyConfig::sanitize`]),
    /// open the checkpoint (with [`StudyConfig::checkpoint`]), plan
    /// admission against [`StudyConfig::govern`], run the per-stream
    /// pass as one supervised unit per stream, then one governed,
    /// supervised unit per scenario. A panicking or stalling unit is
    /// quarantined — recorded in [`Study::execution`] — instead of
    /// aborting the study; an over-budget unit is queued, degraded or
    /// shed, as recorded in [`Study::governance`]. Completed units are
    /// checkpointed, and re-runs over the same inputs resume instead of
    /// recomputing. Results are byte-identical at every job count.
    ///
    /// Everything after sanitization runs in a `study` span, and every
    /// stage (impact, classification, Wait-Graph construction,
    /// aggregation, segment enumeration, contrast mining, supervision,
    /// governance) reports spans and counters through `telemetry`.
    ///
    /// # Errors
    ///
    /// [`StudyError::NoAnalyzableInstances`] when sanitization
    /// quarantines every scenario instance of a non-empty input;
    /// [`StudyError::Checkpoint`] if the checkpoint directory cannot be
    /// used. Unit failures are *not* errors: the study always completes
    /// with every unit accounted for.
    pub fn run(
        dataset: &Dataset,
        config: &StudyConfig,
        names: &[ScenarioName],
        telemetry: &Telemetry,
    ) -> Result<Study, StudyError> {
        let sanitized;
        let (dataset, sanitize) = if config.sanitize {
            let (clean, report) = sanitize_traced(dataset, telemetry)?;
            sanitized = clean;
            (&sanitized, Some(report))
        } else {
            (dataset, None)
        };
        let _span = telemetry.span(stage::STUDY);
        let pool = Pool::new(config.jobs).with_telemetry(telemetry.clone());
        let policy = &config.supervise;
        let plan = config.exec_faults.filter(|p| p.is_armed());
        let checkpoint = match &config.checkpoint {
            Some(dir) => {
                let _span = telemetry.span(stage::CHECKPOINT);
                let fp = crate::checkpoint::fingerprint(dataset, config, names);
                Some(
                    crate::checkpoint::Checkpoint::open(dir, fp).map_err(|source| {
                        StudyError::Checkpoint {
                            dir: dir.clone(),
                            source,
                        }
                    })?,
                )
            }
            None => None,
        };
        let mut execution = ExecutionReport::default();
        let analyzer =
            ImpactAnalyzer::new(config.components.clone()).with_telemetry(telemetry.clone());
        // Whole and degraded units share one probe, so fault plans hit
        // both alike.
        let analysis_for = |causality: CausalityConfig| {
            let analysis = CausalityAnalysis::new(causality).with_telemetry(telemetry.clone());
            match plan {
                Some(p) => analysis.with_probe(Arc::new(move |name: &ScenarioName| {
                    p.arm(CAUSALITY_STAGE, &format!("scenario:{name}"));
                })),
                None => analysis,
            }
        };
        let causality = analysis_for(config.causality.clone());
        if telemetry.enabled() {
            telemetry.count("study.scenarios", names.len() as u64);
        }

        // Admission runs on estimates computed up front, in input order,
        // optionally inflated by the resource-pressure fault plan — so
        // the governor's verdicts are independent of scheduling.
        let mem = config.mem_faults.filter(|p| p.is_armed());
        let estimates: BTreeMap<ScenarioName, u64> = names
            .iter()
            .map(|n| {
                let est = estimated_unit_bytes(dataset, n);
                let est = match mem {
                    Some(p) => p.inflated(SCENARIO_STAGE, &format!("scenario:{n}"), est),
                    None => est,
                };
                (*n, est)
            })
            .collect();
        // The pass aggregates for every unit the governor will run whole
        // (the verdicts are deterministic, see `plan_admission`):
        // degraded units rebuild on their slice and shed units never run,
        // so neither needs the pass's aggregators.
        let labeled: Vec<(String, u64)> = names
            .iter()
            .map(|n| (format!("scenario:{n}"), estimates[n]))
            .collect();
        let whole: Vec<ScenarioName> = names
            .iter()
            .zip(plan_admission(&labeled, &config.govern).decisions)
            .filter(|(_, d)| matches!(d.admission, Admission::Admitted | Admission::Queued))
            .map(|(n, _)| *n)
            .collect();

        // Global impact: restore from the checkpoint when possible,
        // otherwise run the per-stream pass supervised, one unit per
        // stream. Only a pass with no quarantined stream is stored — a
        // partial impact report must be recomputed (and re-quarantined)
        // on resume, never resumed as if it were complete. Without a
        // pass, every unit rebuilds its scenario from the data set.
        let (impact, pass) = match checkpoint.as_ref().and_then(|c| c.load_impact()) {
            Some(saved) => {
                execution.units += 1;
                execution.completed += 1;
                execution.restored += 1;
                (saved, None)
            }
            None => {
                let (pass, pass_exec) = Pass::run(
                    dataset,
                    &analyzer,
                    &causality,
                    |_| true,
                    &whole,
                    telemetry,
                    Supervision::Units {
                        pool: &pool,
                        policy,
                        faults: plan,
                    },
                );
                let impact = pass.impact(telemetry);
                if let Some(c) = &checkpoint {
                    if pass_exec.failures.is_empty() {
                        c.store_impact(&impact)
                            .map_err(|source| StudyError::Checkpoint {
                                dir: c.dir().to_path_buf(),
                                source,
                            })?;
                    }
                }
                execution.absorb(pass_exec);
                (impact, Some(pass))
            }
        };

        // Per-scenario units: restored results short-circuit inside the
        // supervised closure so unit indices (and therefore failure
        // accounts) are identical with and without a warm checkpoint.
        let restored = match &checkpoint {
            Some(c) => {
                let _span = telemetry.span(stage::CHECKPOINT);
                c.load_units(names)
            }
            None => BTreeMap::new(),
        };
        // Degraded units analyze a budget-bounded slice of the data set
        // with a tighter segment bound.
        let degraded_causality = analysis_for(CausalityConfig {
            segment_bound: config.causality.segment_bound.min(DEGRADED_SEGMENT_BOUND),
            ..config.causality.clone()
        });
        let mut per_scenario: BTreeMap<ScenarioName, usize> = BTreeMap::new();
        for i in &dataset.instances {
            *per_scenario.entry(i.scenario).or_insert(0) += 1;
        }
        let (results, mut scenario_exec, governance) = pool.governed_supervised_map(
            names,
            SCENARIO_STAGE,
            policy,
            &config.govern,
            |_, name| estimates.get(name).copied().unwrap_or(0),
            |_, name| {
                UnitMeta::labeled(format!("scenario:{name}"))
                    .for_scenario(name.as_str())
                    .carrying(per_scenario.get(name).copied().unwrap_or(0))
            },
            |i, name, degradation| {
                if let Some(saved) = restored.get(&i) {
                    return saved.clone();
                }
                if let Some(p) = plan {
                    p.arm(SCENARIO_STAGE, &format!("scenario:{name}"));
                }
                match degradation {
                    None => scenario_unit(
                        dataset,
                        name,
                        &analyzer,
                        &causality,
                        pass.as_ref(),
                        telemetry,
                    ),
                    Some(d) => {
                        // The transient slice lives only while this unit
                        // runs — its size is what the degradation bought.
                        let view = degraded_view(dataset, d);
                        scenario_unit(&view, name, &analyzer, &degraded_causality, None, telemetry)
                    }
                }
            },
        );
        scenario_exec.restored = restored.len();
        let mut scenarios: BTreeMap<ScenarioName, ScenarioStudy> = BTreeMap::new();
        for (idx, (name, result)) in names.iter().zip(results).enumerate() {
            let Some(unit) = result else { continue };
            if let Some(c) = &checkpoint {
                if !restored.contains_key(&idx) {
                    let _span = telemetry.span(stage::CHECKPOINT);
                    c.store_unit(idx, name, &unit)
                        .map_err(|source| StudyError::Checkpoint {
                            dir: c.dir().to_path_buf(),
                            source,
                        })?;
                }
            }
            scenarios.insert(*name, unit);
        }
        execution.absorb(scenario_exec);
        let mut coverage = sanitize
            .as_ref()
            .map_or_else(|| Coverage::full(dataset), Coverage::from_sanitize);
        coverage.failed_units = execution.quarantined();
        coverage.degraded_units = governance.degraded;
        coverage.shed_units = governance.shed;
        Ok(Study {
            impact,
            scenarios,
            coverage,
            sanitize,
            execution,
            governance,
        })
    }

    // The two forwards below exist only because the benchmark under
    // `tlbench/` calls them; they go with the next benchmark change.

    #[doc(hidden)]
    pub fn run_governed(
        dataset: &Dataset,
        config: &StudyConfig,
        names: &[ScenarioName],
    ) -> Result<Study, StudyError> {
        Study::run(dataset, config, names, &Telemetry::noop())
    }

    #[doc(hidden)]
    pub fn run_governed_traced(
        dataset: &Dataset,
        config: &StudyConfig,
        names: &[ScenarioName],
        telemetry: &Telemetry,
    ) -> Result<Study, StudyError> {
        Study::run(dataset, config, names, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_sim::{DatasetBuilder, ScenarioMix};

    fn run(ds: &Dataset, config: &StudyConfig, names: &[ScenarioName]) -> Study {
        Study::run(ds, config, names, &Telemetry::noop()).expect("study runs")
    }

    fn sanitizing() -> StudyConfig {
        StudyConfig {
            sanitize: true,
            ..StudyConfig::default()
        }
    }

    #[test]
    fn study_runs_selected_scenarios() {
        let ds = DatasetBuilder::new(5)
            .traces(40)
            .mix(ScenarioMix::Selected)
            .build();
        let names: Vec<ScenarioName> = ScenarioName::SELECTED
            .iter()
            .map(|&s| ScenarioName::new(s))
            .collect();
        let study = run(&ds, &StudyConfig::default(), &names);
        assert_eq!(study.scenarios.len(), 8);
        assert!(study.impact.instances > 0);
        let total: usize = study.scenarios.values().map(|s| s.impact.instances).sum();
        assert_eq!(total, ds.instances.len());
        // At least some scenarios have enough data for causality.
        let ok = study
            .scenarios
            .values()
            .filter(|s| s.causality.is_ok())
            .count();
        assert!(ok >= 4, "only {ok} scenarios analyzable");
        // Slow impact is a subset of scenario impact.
        for s in study.scenarios.values() {
            assert!(s.slow_impact.instances <= s.impact.instances);
            assert!(s.slow_impact.d_scn <= s.impact.d_scn);
        }
    }

    #[test]
    fn run_all_covers_dataset_scenarios() {
        let ds = DatasetBuilder::new(6).traces(15).build();
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        let study = run(&ds, &StudyConfig::default(), &names);
        assert_eq!(study.scenarios.len(), ds.scenarios.len());
        assert!(study.sanitize.is_none());
        assert!(study.coverage.is_full());
        assert_eq!(study.coverage.fraction(), 1.0);
    }

    #[test]
    fn run_sanitized_on_clean_input_has_full_coverage() {
        let ds = DatasetBuilder::new(7).traces(20).build();
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        let study = run(&ds, &sanitizing(), &names);
        assert!(study
            .sanitize
            .as_ref()
            .is_some_and(SanitizeReport::is_clean));
        assert!(study.coverage.is_full());
        let plain = run(&ds, &StudyConfig::default(), &names);
        assert_eq!(study.impact.instances, plain.impact.instances);
        assert_eq!(study.impact.d_scn, plain.impact.d_scn);
    }

    #[test]
    fn supervised_run_quarantines_injected_faults() {
        let ds = DatasetBuilder::new(12)
            .traces(16)
            .mix(ScenarioMix::Selected)
            .build();
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        let cfg = StudyConfig {
            jobs: 1,
            exec_faults: Some(ExecFaultPlan::new(5).with_panic_rate(0.4)),
            supervise: tracelens_pool::SupervisePolicy {
                max_retries: 1,
                ..Default::default()
            },
            ..StudyConfig::default()
        };
        let study = run(&ds, &cfg, &names);
        assert!(
            study.execution.quarantined() > 0,
            "a 40% panic rate over {} scenarios + streams must hit something",
            names.len()
        );
        assert_eq!(study.coverage.failed_units, study.execution.quarantined());
        // Quarantined scenario units are absent from the results map.
        let failed_scenarios = study
            .execution
            .failures
            .iter()
            .filter(|f| f.stage == SCENARIO_STAGE)
            .count();
        assert_eq!(study.scenarios.len(), names.len() - failed_scenarios);
        // Every failure names a unit, a stage, and a panic reason.
        for f in &study.execution.failures {
            assert!(!f.unit.is_empty());
            assert!(
                f.attempts == 2,
                "max_retries 1 → 2 attempts, got {}",
                f.attempts
            );
            assert!(f.reason.to_string().contains("injected fault"));
        }
        // Determinism: an identical run (different job count) agrees.
        let cfg4 = StudyConfig {
            jobs: 4,
            ..cfg.clone()
        };
        let again = run(&ds, &cfg4, &names);
        assert_eq!(again.execution, study.execution);
        assert_eq!(again.impact, study.impact);
    }

    #[test]
    fn checkpoint_resume_is_byte_identical() {
        let ds = DatasetBuilder::new(13)
            .traces(12)
            .mix(ScenarioMix::Selected)
            .build();
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        let dir = std::env::temp_dir().join("tracelens-study-checkpoint-test");
        let _ = std::fs::remove_dir_all(&dir);
        // First pass: faults quarantine some scenario units; their
        // results are NOT checkpointed.
        let faulted = StudyConfig {
            jobs: 2,
            exec_faults: Some(ExecFaultPlan::new(77).with_panic_rate(0.5)),
            checkpoint: Some(dir.clone()),
            ..StudyConfig::default()
        };
        let first = run(&ds, &faulted, &names);
        assert!(first.execution.quarantined() > 0, "seed must hit something");
        assert_eq!(first.execution.restored, 0);
        // Second pass: same inputs, faults off — restores completed
        // units, re-runs the quarantined ones, and must be
        // byte-identical to a clean uninterrupted run.
        let resumed_cfg = StudyConfig {
            jobs: 2,
            checkpoint: Some(dir.clone()),
            ..StudyConfig::default()
        };
        let resumed = run(&ds, &resumed_cfg, &names);
        assert!(resumed.execution.restored > 0, "nothing was restored");
        assert!(resumed.execution.failures.is_empty());
        let clean_cfg = StudyConfig {
            jobs: 2,
            ..StudyConfig::default()
        };
        let clean = run(&ds, &clean_cfg, &names);
        let opts = crate::ReportOptions::default();
        assert_eq!(
            crate::render_markdown(&resumed, &ds, &opts),
            crate::render_markdown(&clean, &ds, &opts),
            "resumed study must render byte-identical to a clean run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sanitized_supervised_returns_typed_error_when_nothing_survives() {
        use tracelens_model::{ScenarioInstance, ThreadId, TimeNs, TraceId};
        // A dataset whose every instance dangles: sanitize quarantines
        // them all and the study must refuse with a typed error rather
        // than report all-zero numbers.
        let mut ds = DatasetBuilder::new(14).traces(2).build();
        ds.instances.clear();
        let scenario = ds.scenarios[0].name;
        for k in 0..3u32 {
            ds.instances.push(ScenarioInstance {
                trace: TraceId(ds.streams.len() as u32 + 7 + k),
                scenario,
                tid: ThreadId(1),
                t0: TimeNs(0),
                t1: TimeNs(1),
            });
        }
        let names = vec![scenario];
        let err = Study::run(&ds, &sanitizing(), &names, &Telemetry::noop())
            .expect_err("all instances quarantined must be a typed error");
        match err {
            StudyError::NoAnalyzableInstances {
                input_instances,
                quarantined_instances,
            } => {
                assert_eq!(input_instances, 3);
                assert_eq!(quarantined_instances, 3);
            }
            other => panic!("wrong error: {other}"),
        }
        // An empty input (no instances at all) is not an error: there
        // was nothing to lose.
        let empty = tracelens_model::Dataset::new();
        assert!(Study::run(&empty, &sanitizing(), &[], &Telemetry::noop()).is_ok());
    }

    #[test]
    fn run_sanitized_quarantines_and_reports_partial_coverage() {
        use tracelens_model::{ScenarioInstance, ThreadId, TimeNs, TraceId};
        let mut ds = DatasetBuilder::new(8).traces(10).build();
        let dangling = TraceId(ds.streams.len() as u32 + 5);
        let scenario = ds.scenarios[0].name;
        ds.instances.push(ScenarioInstance {
            trace: dangling,
            scenario,
            tid: ThreadId(1),
            t0: TimeNs(0),
            t1: TimeNs(1),
        });
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        let study = run(&ds, &sanitizing(), &names);
        assert_eq!(study.sanitize.unwrap().quarantined_instances, 1);
        assert!(!study.coverage.is_full());
        assert!(study.coverage.fraction() < 1.0);
        assert_eq!(
            study.coverage.analyzed_instances,
            ds.instances.len() - 1,
            "exactly the dangling instance is excluded"
        );
    }
}
