//! The end-to-end causality analysis and its report.

use crate::aggregate::Aggregator;
use crate::classes::{split_classes, ClassSplit};
use crate::contrast::{mine_contrasts_traced, ContrastPattern, MiningStats};
use crate::DEFAULT_SEGMENT_BOUND;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use tracelens_model::{
    ComponentFilter, Dataset, DriverType, ScenarioInstance, ScenarioName, Signature, StackTable,
    Thresholds, TimeNs,
};
use tracelens_obs::{stage, Telemetry};
use tracelens_waitgraph::{StreamIndex, WaitGraph};

/// Configuration of a causality analysis run.
#[derive(Debug, Clone)]
pub struct CausalityConfig {
    /// The components under analysis (`*.sys` for device drivers).
    pub components: ComponentFilter,
    /// Maximum path-segment length `k` for meta-pattern enumeration.
    pub segment_bound: usize,
    /// Whether to apply the non-optimizable (wait→hardware) reduction;
    /// `true` reproduces the paper, `false` supports the ablation.
    pub reduce: bool,
}

impl Default for CausalityConfig {
    fn default() -> Self {
        CausalityConfig {
            components: ComponentFilter::suffix(".sys"),
            segment_bound: DEFAULT_SEGMENT_BOUND,
            reduce: true,
        }
    }
}

/// Failures of [`CausalityAnalysis::analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CausalityError {
    /// The scenario is not defined in the data set.
    UnknownScenario(ScenarioName),
    /// One contrast class has no instances, so there is nothing to
    /// contrast against.
    EmptyClass {
        /// `"fast"` or `"slow"`.
        class: &'static str,
        /// The scenario analyzed.
        scenario: ScenarioName,
    },
}

impl fmt::Display for CausalityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CausalityError::UnknownScenario(s) => {
                write!(f, "scenario {s} is not defined in the data set")
            }
            CausalityError::EmptyClass { class, scenario } => {
                write!(
                    f,
                    "the {class} contrast class of scenario {scenario} is empty"
                )
            }
        }
    }
}

impl Error for CausalityError {}

/// Output of one causality run over a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalityReport {
    /// The scenario analyzed.
    pub scenario: ScenarioName,
    /// Thresholds used for classification.
    pub thresholds: Thresholds,
    /// Fast-class instance count.
    pub fast_instances: usize,
    /// Slow-class instance count.
    pub slow_instances: usize,
    /// Margin (excluded) instance count.
    pub margin_instances: usize,
    /// Discovered contrast patterns, ranked by average cost (highest
    /// first).
    pub patterns: Vec<ContrastPattern>,
    /// Mining diagnostics.
    pub stats: MiningStats,
    /// Post-reduction total root time of the slow AWG — the coverable
    /// scope of the mined patterns.
    pub slow_scope_time: TimeNs,
    /// Time pruned from the slow AWG as non-optimizable direct hardware
    /// service.
    pub slow_reduced_time: TimeNs,
}

impl CausalityReport {
    /// Total slow-class driver time: the coverable scope plus the pruned
    /// direct-hardware portion — the denominator of ITC and TTC.
    pub fn slow_driver_time(&self) -> TimeNs {
        self.slow_scope_time + self.slow_reduced_time
    }

    /// Impactful-time coverage: total cost of high-impact patterns (those
    /// with an execution above `T_slow`) over the slow-class driver time.
    pub fn itc(&self) -> f64 {
        let hi: TimeNs = self
            .patterns
            .iter()
            .filter(|p| p.is_high_impact(self.thresholds.slow()))
            .map(|p| p.c)
            .sum();
        hi.ratio(self.slow_driver_time())
    }

    /// Total-time coverage: total cost of all patterns over the
    /// slow-class driver time.
    pub fn ttc(&self) -> f64 {
        let all: TimeNs = self.patterns.iter().map(|p| p.c).sum();
        all.ratio(self.slow_driver_time())
    }

    /// Fraction of the slow-class driver time that was pruned as
    /// non-optimizable direct hardware service (66.6 % for
    /// BrowserTabSwitch in the paper).
    pub fn reduced_fraction(&self) -> f64 {
        self.slow_reduced_time.ratio(self.slow_driver_time())
    }

    /// Execution-time coverage of the top `frac` (0..=1] of the ranked
    /// patterns, over the total cost of all discovered patterns — the
    /// measurement behind the paper's Table 3.
    pub fn coverage_top_fraction(&self, frac: f64) -> f64 {
        if self.patterns.is_empty() {
            return 0.0;
        }
        let take =
            ((self.patterns.len() as f64 * frac).ceil() as usize).clamp(1, self.patterns.len());
        let top: TimeNs = self.patterns.iter().take(take).map(|p| p.c).sum();
        let all: TimeNs = self.patterns.iter().map(|p| p.c).sum();
        top.ratio(all)
    }

    /// The top `n` ranked patterns.
    pub fn top(&self, n: usize) -> &[ContrastPattern] {
        &self.patterns[..n.min(self.patterns.len())]
    }

    /// Counts, for the top `n` patterns, how many contain at least one
    /// signature of each driver type — the rows of the paper's Table 4.
    pub fn driver_type_histogram(
        &self,
        stacks: &StackTable,
        n: usize,
    ) -> BTreeMap<DriverType, usize> {
        let mut hist = BTreeMap::new();
        for p in self.top(n) {
            let mut seen = std::collections::BTreeSet::new();
            for sym in p.tuple.all_symbols() {
                let Some(text) = stacks.symbols().resolve(sym) else {
                    continue;
                };
                if let Some(ty) = Signature::module_of(text).and_then(DriverType::classify) {
                    seen.insert(ty);
                }
            }
            for ty in seen {
                *hist.entry(ty).or_insert(0) += 1;
            }
        }
        hist
    }
}

/// A hook run at the top of [`CausalityAnalysis::analyze`] with the
/// scenario under analysis — the seam execution-fault injection uses to
/// provoke panics *inside* the analyzer, so supervisor tests exercise a
/// failure that genuinely originates in this crate.
pub type AnalysisProbe = std::sync::Arc<dyn Fn(&ScenarioName) + Send + Sync>;

/// The causality analysis driver.
#[derive(Clone)]
pub struct CausalityAnalysis {
    config: CausalityConfig,
    telemetry: Telemetry,
    probe: Option<AnalysisProbe>,
}

impl std::fmt::Debug for CausalityAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CausalityAnalysis")
            .field("config", &self.config)
            .field("telemetry", &self.telemetry)
            .field("probe", &self.probe.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

impl Default for CausalityAnalysis {
    /// Default configuration, no telemetry.
    fn default() -> Self {
        CausalityAnalysis::new(CausalityConfig::default())
    }
}

impl CausalityAnalysis {
    /// Creates an analysis with the given configuration.
    pub fn new(config: CausalityConfig) -> Self {
        CausalityAnalysis {
            config,
            telemetry: Telemetry::noop(),
            probe: None,
        }
    }

    /// Attaches a telemetry handle; [`CausalityAnalysis::analyze`] then
    /// reports `classes`/`waitgraph`/`aggregate`/`segments`/`contrast`
    /// stage spans and mining counters through it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches an [`AnalysisProbe`], invoked at the top of every
    /// [`CausalityAnalysis::analyze`] call. Used by execution-fault
    /// injection; a probe that panics makes the analysis panic as if an
    /// internal invariant had failed.
    pub fn with_probe(mut self, probe: AnalysisProbe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &CausalityConfig {
        &self.config
    }

    /// Runs the full pipeline for one scenario: classify → aggregate →
    /// mine → rank.
    ///
    /// # Errors
    ///
    /// [`CausalityError::UnknownScenario`] if the data set does not
    /// define `scenario`; [`CausalityError::EmptyClass`] if either
    /// contrast class is empty.
    pub fn analyze(
        &self,
        dataset: &Dataset,
        scenario: &ScenarioName,
    ) -> Result<CausalityReport, CausalityError> {
        let split = self.classify(dataset, scenario)?;
        let (fast_agg, slow_agg) = self.aggregate(dataset, &split);
        Ok(self.finish(scenario, &split, fast_agg, slow_agg))
    }

    /// The first step of [`CausalityAnalysis::analyze`]: runs the probe,
    /// then splits `scenario`'s instances into contrast classes and
    /// reports the class counters.
    ///
    /// # Errors
    ///
    /// As [`CausalityAnalysis::analyze`].
    pub fn classify<'d>(
        &self,
        dataset: &'d Dataset,
        scenario: &ScenarioName,
    ) -> Result<ClassSplit<'d>, CausalityError> {
        if let Some(probe) = &self.probe {
            probe(scenario);
        }
        let split = {
            let _span = self.telemetry.span(stage::CLASSES);
            split_classes(dataset, scenario).ok_or(CausalityError::UnknownScenario(*scenario))?
        };
        if self.telemetry.enabled() {
            self.telemetry
                .count("classes.fast", split.fast.len() as u64);
            self.telemetry
                .count("classes.slow", split.slow.len() as u64);
            self.telemetry
                .count("classes.margin", split.margin.len() as u64);
        }
        if split.fast.is_empty() {
            return Err(CausalityError::EmptyClass {
                class: "fast",
                scenario: *scenario,
            });
        }
        if split.slow.is_empty() {
            return Err(CausalityError::EmptyClass {
                class: "slow",
                scenario: *scenario,
            });
        }
        Ok(split)
    }

    /// The middle step of [`CausalityAnalysis::analyze`]: builds the Wait
    /// Graphs of `split`'s fast and slow instances and aggregates each
    /// class into its own [`Aggregator`].
    pub fn aggregate<'d>(
        &self,
        dataset: &'d Dataset,
        split: &ClassSplit<'_>,
    ) -> (Aggregator<'d>, Aggregator<'d>) {
        let _span = self.telemetry.span(stage::WAITGRAPH);
        let mut fast_agg = Aggregator::new(&dataset.stacks, &self.config.components);
        let mut slow_agg = Aggregator::new(&dataset.stacks, &self.config.components);
        self.aggregate_instances(dataset, &split.fast, &mut fast_agg);
        self.aggregate_instances(dataset, &split.slow, &mut slow_agg);
        (fast_agg, slow_agg)
    }

    /// The last step of [`CausalityAnalysis::analyze`]: seals the AWGs
    /// that were fed the Wait Graphs of `split`'s fast and slow
    /// instances — each class in stream-position order, data set order
    /// within a stream, as the AWG's node ids depend on insertion order
    /// — then mines and ranks the contrast patterns.
    pub fn finish(
        &self,
        scenario: &ScenarioName,
        split: &ClassSplit<'_>,
        fast_agg: Aggregator<'_>,
        slow_agg: Aggregator<'_>,
    ) -> CausalityReport {
        let (fast_awg, slow_awg) = {
            let _span = self.telemetry.span(stage::AGGREGATE);
            if self.config.reduce {
                (fast_agg.finish(), slow_agg.finish())
            } else {
                (fast_agg.finish_unreduced(), slow_agg.finish_unreduced())
            }
        };
        if self.telemetry.enabled() {
            self.telemetry
                .count("aggregate.fast_nodes", fast_awg.node_count() as u64);
            self.telemetry
                .count("aggregate.slow_nodes", slow_awg.node_count() as u64);
        }

        let (patterns, stats) = mine_contrasts_traced(
            &fast_awg,
            &slow_awg,
            split.thresholds,
            self.config.segment_bound,
            &self.telemetry,
        );

        CausalityReport {
            scenario: *scenario,
            thresholds: split.thresholds,
            fast_instances: split.fast.len(),
            slow_instances: split.slow.len(),
            margin_instances: split.margin.len(),
            patterns,
            stats,
            slow_scope_time: slow_awg.total_root_time(),
            slow_reduced_time: slow_awg.reduced_time(),
        }
    }

    /// Builds and aggregates the Wait Graphs of `instances`, grouping by
    /// stream position so each stream's index is built once, and feeding
    /// the graphs in stream-position order, data set order within a
    /// stream.
    fn aggregate_instances(
        &self,
        dataset: &Dataset,
        instances: &[&ScenarioInstance],
        agg: &mut Aggregator<'_>,
    ) {
        let mut by_trace: BTreeMap<u32, Vec<&ScenarioInstance>> = BTreeMap::new();
        for &i in instances {
            by_trace.entry(i.trace.0).or_default().push(i);
        }
        for (trace, group) in by_trace {
            let Some(stream) = dataset.streams.get(trace as usize) else {
                continue;
            };
            let index = StreamIndex::new_traced(stream, &self.telemetry);
            for instance in group {
                let graph = WaitGraph::build_traced(stream, &index, instance, &self.telemetry);
                agg.add_graph_tagged(&graph, (instance.trace, instance.tid));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_sim::{DatasetBuilder, ScenarioMix};

    fn dataset(seed: u64, traces: usize, scenario: &str) -> Dataset {
        DatasetBuilder::new(seed)
            .traces(traces)
            .mix(ScenarioMix::Only(vec![scenario.into()]))
            .build()
    }

    #[test]
    fn analyze_browser_tab_create_finds_patterns() {
        let ds = dataset(42, 60, "BrowserTabCreate");
        let report = CausalityAnalysis::new(CausalityConfig::default())
            .analyze(&ds, &ScenarioName::new("BrowserTabCreate"))
            .expect("analysis succeeds");
        assert!(report.fast_instances > 0);
        assert!(report.slow_instances > 0);
        assert!(!report.patterns.is_empty(), "patterns discovered");
        // Ranked by average cost.
        for w in report.patterns.windows(2) {
            assert!(w[0].avg_cost() >= w[1].avg_cost());
        }
        // Coverages are sane and ordered.
        let itc = report.itc();
        let ttc = report.ttc();
        assert!(itc >= 0.0 && itc <= ttc, "itc={itc} ttc={ttc}");
        assert!(ttc <= 1.5, "ttc={ttc}"); // child costs unclipped, may pass 1
        assert!(report.coverage_top_fraction(1.0) > 0.999);
        assert!(report.coverage_top_fraction(0.1) <= report.coverage_top_fraction(0.3) + 1e-12);
    }

    #[test]
    fn patterns_carry_example_instances() {
        let ds = dataset(42, 60, "BrowserTabCreate");
        let report = CausalityAnalysis::default()
            .analyze(&ds, &ScenarioName::new("BrowserTabCreate"))
            .unwrap();
        let with_examples = report
            .patterns
            .iter()
            .filter(|p| !p.examples.is_empty())
            .count();
        assert!(with_examples > 0, "patterns should carry drill-down tags");
        // Every example refers to a real slow instance of the scenario.
        let th = report.thresholds;
        for p in &report.patterns {
            for &(trace, tid) in &p.examples {
                let hit = ds.instances.iter().find(|i| {
                    i.trace == trace && i.tid == tid && i.scenario.as_str() == "BrowserTabCreate"
                });
                let inst = hit.expect("example references a known instance");
                assert_eq!(th.classify(inst.duration()), Some(false), "must be slow");
            }
        }
    }

    #[test]
    fn unknown_scenario_errors() {
        let ds = dataset(1, 5, "BrowserTabCreate");
        let err = CausalityAnalysis::default()
            .analyze(&ds, &ScenarioName::new("Nope"))
            .unwrap_err();
        assert!(matches!(err, CausalityError::UnknownScenario(_)));
        assert!(err.to_string().contains("Nope"));
    }

    #[test]
    fn figure1_chain_is_a_top_pattern() {
        // On a BrowserTabCreate-only workload the fv→fs→se chain must be
        // recovered among the top patterns.
        let ds = dataset(7, 80, "BrowserTabCreate");
        let report = CausalityAnalysis::default()
            .analyze(&ds, &ScenarioName::new("BrowserTabCreate"))
            .unwrap();
        let fv = ds.stacks.symbols().lookup("fv.sys!QueryFileTable");
        let se = ds.stacks.symbols().lookup("se.sys!ReadDecrypt");
        let (fv, se) = (fv.expect("fv interned"), se.expect("se interned"));
        let found = report
            .top(10)
            .iter()
            .any(|p| p.tuple.wait.contains(&fv) && p.tuple.running.contains(&se));
        assert!(
            found,
            "expected the Figure-1 chain among the top-10 patterns; got:\n{}",
            report
                .top(10)
                .iter()
                .map(|p| format!(
                    "avg={} n={}\n{}\n",
                    p.avg_cost(),
                    p.n,
                    p.tuple.render(&ds.stacks)
                ))
                .collect::<String>()
        );
    }

    #[test]
    fn reduction_ablation_increases_scope() {
        let ds = dataset(21, 60, "BrowserTabSwitch");
        let name = ScenarioName::new("BrowserTabSwitch");
        let with = CausalityAnalysis::default().analyze(&ds, &name).unwrap();
        let without = CausalityAnalysis::new(CausalityConfig {
            reduce: false,
            ..CausalityConfig::default()
        })
        .analyze(&ds, &name)
        .unwrap();
        assert_eq!(without.slow_reduced_time, TimeNs::ZERO);
        assert!(without.slow_scope_time >= with.slow_scope_time);
        assert!(
            with.slow_reduced_time > TimeNs::ZERO,
            "tab switch has direct hw reads to prune"
        );
    }

    #[test]
    fn driver_type_histogram_sees_expected_types() {
        let ds = dataset(13, 70, "MenuDisplay");
        let report = CausalityAnalysis::default()
            .analyze(&ds, &ScenarioName::new("MenuDisplay"))
            .unwrap();
        let hist = report.driver_type_histogram(&ds.stacks, 10);
        assert!(
            hist.contains_key(&DriverType::Network),
            "MenuDisplay is network-dominated: {hist:?}"
        );
    }
}
