//! The single per-stream pass a study derives every result from.
//!
//! One pass over the streams, in stream order, indexes each stream with
//! instances once and builds each instance's Wait Graph once
//! ([`ImpactAnalyzer::visit_stream`]). Every instance leaves an
//! [`InstanceRecord`]; every classified graph of an aggregated scenario
//! is fed to that scenario's fast or slow [`Aggregator`] and dropped.
//! Impact reports are group-by reductions over the records; a causality
//! report seals and mines its scenario's two aggregators.
//!
//! AWG node ids depend on insertion order, so graphs reach the
//! aggregators in stream-position order, data set order within a stream
//! — the order of `CausalityAnalysis::analyze`. Stream results are
//! consumed in that order through [`Pool::map_ordered`], which also
//! bounds how many streams' graphs are alive at once.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use tracelens_causality::{Aggregator, CausalityAnalysis};
use tracelens_faults::ExecFaultPlan;
use tracelens_impact::{ImpactAnalyzer, ImpactReport, InstanceRecord, StreamGroup};
use tracelens_model::{Dataset, ScenarioInstance, ScenarioName};
use tracelens_obs::{stage, Telemetry};
use tracelens_pool::{ExecutionReport, Pool, SupervisePolicy, UnitMeta};
use tracelens_waitgraph::WaitGraph;

use crate::study::ScenarioStudy;

/// A scenario's fast- and slow-class aggregators.
type Awgs<'d> = (Aggregator<'d>, Aggregator<'d>);

/// One stream's contribution: its records, and the classified graphs to
/// aggregate (`true` = fast class), in data set order.
type StreamOutput<'d> = (
    Vec<InstanceRecord>,
    Vec<(bool, &'d ScenarioInstance, WaitGraph)>,
);

/// How the pass runs its per-stream units.
pub(crate) enum Supervision<'a> {
    /// Plain [`Pool::map_ordered`]: a panic aborts the study.
    None,
    /// [`Pool::supervised_map_ordered`]: a failing `stream:<id>` unit
    /// (stage `impact`) is quarantined; `faults` arms injected ones.
    Units {
        policy: &'a SupervisePolicy,
        faults: Option<ExecFaultPlan>,
    },
}

/// The results of one pass.
pub(crate) struct Pass<'d> {
    /// Every recorded instance, grouped by scenario.
    records: BTreeMap<ScenarioName, Vec<InstanceRecord>>,
    /// Fed aggregators per aggregated scenario, until a unit takes them.
    awgs: BTreeMap<ScenarioName, Mutex<Option<Awgs<'d>>>>,
    /// Scenarios with an instance on a quarantined stream.
    quarantined: BTreeSet<ScenarioName>,
}

impl<'d> Pass<'d> {
    /// Runs the pass over the instances of `dataset` that `keep`
    /// selects, aggregating the scenarios in `aggregate` that define
    /// thresholds. Records resolve instances by stream id and
    /// aggregation by stream position, as the standalone analyses do; a
    /// scenario for which the two disagree (unvalidated input) is left
    /// unaggregated.
    pub(crate) fn run(
        dataset: &'d Dataset,
        analyzer: &ImpactAnalyzer,
        causality: &CausalityAnalysis,
        keep: impl Fn(&ScenarioInstance) -> bool,
        aggregate: &[ScenarioName],
        pool: &Pool,
        supervision: Supervision<'_>,
    ) -> (Pass<'d>, ExecutionReport) {
        let _span = pool.telemetry().span(stage::WAITGRAPH);
        let mut fed: BTreeSet<ScenarioName> = aggregate
            .iter()
            .filter(|n| dataset.scenario(n).is_some())
            .copied()
            .collect();
        for i in dataset.instances.iter().filter(|i| keep(i)) {
            let stream = dataset.streams.get(i.trace.0 as usize);
            if stream.is_some_and(|s| s.id() != i.trace) {
                fed.remove(&i.scenario);
            }
        }
        let components = &causality.config().components;
        let mut awgs: BTreeMap<ScenarioName, Awgs<'d>> = fed
            .iter()
            .map(|n| {
                let agg = || Aggregator::new(&dataset.stacks, components);
                (*n, (agg(), agg()))
            })
            .collect();
        let view = dataset.stacks.filter_view(analyzer.filter());
        let groups = ImpactAnalyzer::stream_groups(dataset, keep);
        let work = |g: &StreamGroup<'d>| -> StreamOutput<'d> {
            let aggregated = g.stream.id().0 as usize == g.position;
            let mut records = Vec::with_capacity(g.instances.len());
            let mut graphs = Vec::new();
            analyzer.visit_stream(
                dataset,
                g.stream,
                &g.instances,
                &view,
                |i, record, graph| {
                    if let Some(fast) = record.class.filter(|_| aggregated) {
                        if fed.contains(&i.scenario) {
                            graphs.push((fast, i, graph));
                        }
                    }
                    records.push(record);
                },
            );
            (records, graphs)
        };
        let mut records: BTreeMap<ScenarioName, Vec<InstanceRecord>> = BTreeMap::new();
        let mut quarantined = BTreeSet::new();
        let mut consume = |unit: usize, out: Option<StreamOutput<'d>>| match out {
            Some((unit_records, graphs)) => {
                for (fast, i, graph) in graphs {
                    let (fast_agg, slow_agg) = awgs.get_mut(&i.scenario).expect("fed scenario");
                    let agg = if fast { fast_agg } else { slow_agg };
                    agg.add_graph_tagged(&graph, (i.trace, i.tid));
                }
                for r in unit_records {
                    records.entry(r.scenario).or_default().push(r);
                }
            }
            None => quarantined.extend(groups[unit].instances.iter().map(|i| i.scenario)),
        };
        let execution = match supervision {
            Supervision::None => {
                pool.map_ordered(
                    &groups,
                    |_, g| work(g),
                    |unit, out| consume(unit, Some(out)),
                );
                ExecutionReport::default()
            }
            Supervision::Units { policy, faults } => pool.supervised_map_ordered(
                &groups,
                stage::IMPACT,
                policy,
                |_, g| {
                    UnitMeta::labeled(format!("stream:{}", g.stream.id().0))
                        .for_stream(g.stream.id().0)
                        .carrying(g.instances.len())
                },
                |_, g| {
                    if let Some(plan) = faults {
                        plan.arm(stage::IMPACT, &format!("stream:{}", g.stream.id().0));
                    }
                    work(g)
                },
                consume,
            ),
        };
        let pass = Pass {
            records,
            awgs: awgs
                .into_iter()
                .map(|(name, pair)| (name, Mutex::new(Some(pair))))
                .collect(),
            quarantined,
        };
        (pass, execution)
    }

    /// The impact report over every instance the pass recorded.
    pub(crate) fn impact(&self, telemetry: &Telemetry) -> ImpactReport {
        let _span = telemetry.span(stage::IMPACT);
        ImpactReport::from_records(self.records.values().flatten())
    }
}

/// One scenario unit: `name`'s impact, slow-class impact and causality
/// over `dataset`.
///
/// The unit reduces `pass`'s records and seals its aggregators. Without
/// a pass, or when the pass quarantined one of the scenario's streams,
/// it rebuilds the scenario alone through the same pass — a unit never
/// reduces partial records. When the pass did not aggregate the
/// scenario (unvalidated input, or another unit of the same name took
/// the aggregators), only the classified instances' graphs are rebuilt,
/// by `CausalityAnalysis::aggregate`.
pub(crate) fn scenario_unit<'d>(
    dataset: &'d Dataset,
    name: &ScenarioName,
    analyzer: &ImpactAnalyzer,
    causality: &CausalityAnalysis,
    pass: Option<&Pass<'d>>,
    telemetry: &Telemetry,
) -> ScenarioStudy {
    let split = causality.classify(dataset, name);
    let rebuilt;
    let pass = match pass {
        Some(pass) if !pass.quarantined.contains(name) => pass,
        _ => {
            let aggregate = if split.is_ok() {
                std::slice::from_ref(name)
            } else {
                &[]
            };
            let pool = Pool::sequential().with_telemetry(telemetry.clone());
            let keep = |i: &ScenarioInstance| i.scenario == *name;
            rebuilt = Pass::run(
                dataset,
                analyzer,
                causality,
                keep,
                aggregate,
                &pool,
                Supervision::None,
            );
            &rebuilt.0
        }
    };
    let records = pass.records.get(name).map_or(&[][..], Vec::as_slice);
    let (impact, slow_impact) = {
        let _span = telemetry.span(stage::IMPACT);
        let slow = match dataset.scenario(name) {
            Some(_) => {
                ImpactReport::from_records(records.iter().filter(|r| r.class == Some(false)))
            }
            None => ImpactReport::default(),
        };
        (ImpactReport::from_records(records), slow)
    };
    let causality = split.map(|split| {
        let fed = pass.awgs.get(name).and_then(|m| m.lock().ok()?.take());
        let (fast, slow) = fed.unwrap_or_else(|| causality.aggregate(dataset, &split));
        causality.finish(name, &split, fast, slow)
    });
    ScenarioStudy {
        impact,
        slow_impact,
        causality,
    }
}
