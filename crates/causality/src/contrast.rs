//! Contrast mining: meta-pattern contrasts and contrast patterns
//! (§4.2.3).

use crate::awg::{AggregatedWaitGraph, InstanceTag, MAX_EXAMPLES};
use crate::segments::{enumerate_meta_patterns, MetaPatternTable};
use crate::tuple::SignatureSetTuple;
use std::collections::HashMap;
use tracelens_model::{Thresholds, TimeNs};

/// A discovered contrast pattern: a full-path Signature Set Tuple from
/// the slow class containing at least one contrast meta-pattern, with
/// merged metrics over all paths sharing the tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContrastPattern {
    /// The pattern.
    pub tuple: SignatureSetTuple,
    /// Total cost `P.C` (sum of end-node costs of the merged paths).
    pub c: TimeNs,
    /// Occurrences `P.N`.
    pub n: u64,
    /// Maximum single-execution duration of the pattern: the largest
    /// single duration of *any node on the merged paths* (in practice
    /// the root wait of the chain), used by the §5.2.1 high-impact rule.
    pub c_max: TimeNs,
    /// Up to a few example instances exhibiting the pattern (trace id +
    /// initiating thread), for direct drill-down.
    pub examples: Vec<InstanceTag>,
}

impl ContrastPattern {
    /// Average execution cost `P.C / P.N`, the ranking key.
    pub fn avg_cost(&self) -> TimeNs {
        if self.n == 0 {
            TimeNs::ZERO
        } else {
            self.c / self.n
        }
    }

    /// The automated high-impact rule of §5.2.1: at least one execution
    /// exceeded `T_slow`.
    pub fn is_high_impact(&self, t_slow: TimeNs) -> bool {
        self.c_max > t_slow
    }
}

/// Diagnostics of one mining run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MiningStats {
    /// Meta-patterns enumerated from the fast class.
    pub fast_metas: usize,
    /// Meta-patterns enumerated from the slow class.
    pub slow_metas: usize,
    /// Meta-patterns selected as contrasts.
    pub contrast_metas: usize,
    /// Full slow-class paths examined.
    pub slow_paths: usize,
    /// Slow-class leaves skipped as zero-cost (pruned before tuple
    /// construction).
    pub zero_cost_pruned: usize,
    /// Distinct contrast patterns after tuple merging — `patterns.len()`
    /// of the accompanying result, kept here so diagnostics travel as
    /// one value.
    pub patterns: usize,
}

/// Mines ranked contrast patterns between the two class AWGs.
///
/// Criteria (two, per the paper):
/// 1. a slow-class meta-pattern absent from the fast class is a contrast;
/// 2. a meta-pattern common to both classes is a contrast when its
///    average-cost ratio exceeds the threshold ratio:
///    `(Ps.C/Ps.N) / (Pf.C/Pf.N) > T_slow / T_fast`.
///
/// Full root→leaf paths of the slow AWG whose tuples contain any contrast
/// meta-pattern become contrast patterns; identical tuples merge their
/// `P.C`/`P.N`, and the result is ranked by average cost, highest first.
pub fn mine_contrasts(
    fast: &AggregatedWaitGraph,
    slow: &AggregatedWaitGraph,
    thresholds: Thresholds,
    k: usize,
) -> (Vec<ContrastPattern>, MiningStats) {
    mine_contrasts_traced(fast, slow, thresholds, k, &tracelens_obs::Telemetry::noop())
}

/// [`mine_contrasts`] with telemetry: reports `segments` and `contrast`
/// stage spans plus mining counters through `telemetry`. With a disabled
/// handle this is exactly `mine_contrasts`.
pub fn mine_contrasts_traced(
    fast: &AggregatedWaitGraph,
    slow: &AggregatedWaitGraph,
    thresholds: Thresholds,
    k: usize,
    telemetry: &tracelens_obs::Telemetry,
) -> (Vec<ContrastPattern>, MiningStats) {
    let (fast_metas, slow_metas) = {
        let _span = telemetry.span(tracelens_obs::stage::SEGMENTS);
        (
            enumerate_meta_patterns(fast, k),
            enumerate_meta_patterns(slow, k),
        )
    };
    let _span = telemetry.span(tracelens_obs::stage::CONTRAST);
    let contrast_metas = select_contrast_metas(&fast_metas, &slow_metas, thresholds);
    let mut stats = MiningStats {
        fast_metas: fast_metas.len(),
        slow_metas: slow_metas.len(),
        contrast_metas: contrast_metas.len(),
        slow_paths: 0,
        zero_cost_pruned: 0,
        patterns: 0,
    };

    // Lift to full paths of the slow AWG.
    let mut merged: HashMap<SignatureSetTuple, ContrastPattern> = HashMap::new();
    for id in slow.preorder() {
        if !slow.node(id).is_leaf() {
            continue;
        }
        stats.slow_paths += 1;
        if slow.node(id).c == TimeNs::ZERO {
            // Zero-cost paths (e.g. same-timestamp lock handoffs) carry
            // no impact and would only clutter the ranking.
            stats.zero_cost_pruned += 1;
            continue;
        }
        let path = slow.path_to(id);
        let tuple = SignatureSetTuple::of_segment(slow, &path);
        if !contrast_metas.iter().any(|m| tuple.contains(m)) {
            continue;
        }
        let end = slow.node(id);
        let path_c_max = path
            .iter()
            .map(|&n| slow.node(n).c_max)
            .max()
            .unwrap_or(TimeNs::ZERO);
        let entry = merged.entry(tuple.clone()).or_insert(ContrastPattern {
            tuple,
            c: TimeNs::ZERO,
            n: 0,
            c_max: TimeNs::ZERO,
            examples: Vec::new(),
        });
        entry.c += end.c;
        entry.n += end.n;
        entry.c_max = entry.c_max.max(path_c_max);
        for &tag in &end.examples {
            if entry.examples.len() >= MAX_EXAMPLES {
                break;
            }
            if !entry.examples.contains(&tag) {
                entry.examples.push(tag);
            }
        }
    }

    let mut patterns: Vec<ContrastPattern> = merged.into_values().collect();
    patterns.sort_by(|a, b| {
        b.avg_cost()
            .cmp(&a.avg_cost())
            .then_with(|| b.c.cmp(&a.c))
            .then_with(|| a.tuple.cmp(&b.tuple))
    });
    stats.patterns = patterns.len();
    if telemetry.enabled() {
        telemetry.count("segments.fast_metas", stats.fast_metas as u64);
        telemetry.count("segments.slow_metas", stats.slow_metas as u64);
        telemetry.count("contrast.metas", stats.contrast_metas as u64);
        telemetry.count("contrast.slow_paths", stats.slow_paths as u64);
        telemetry.count("contrast.zero_cost_pruned", stats.zero_cost_pruned as u64);
        telemetry.count("contrast.patterns", stats.patterns as u64);
    }
    (patterns, stats)
}

/// Applies the two contrast criteria over the class meta-pattern tables.
///
/// The result is sorted by tuple (interned-symbol order) so downstream
/// consumers never observe the `HashMap` iteration order of the tables.
fn select_contrast_metas(
    fast: &MetaPatternTable,
    slow: &MetaPatternTable,
    thresholds: Thresholds,
) -> Vec<SignatureSetTuple> {
    let ratio_bound = thresholds.contrast_ratio();
    let mut out = Vec::new();
    for (tuple, sm) in slow {
        match fast.get(tuple) {
            None => out.push(tuple.clone()),
            Some(fm) => {
                let slow_avg = sm.avg().as_nanos() as f64;
                let fast_avg = fm.avg().as_nanos() as f64;
                if fast_avg > 0.0 && slow_avg / fast_avg > ratio_bound {
                    out.push(tuple.clone());
                }
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::awg::{AwgId, AwgKey, AwgNode};
    use tracelens_model::Symbol;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    fn thresholds() -> Thresholds {
        Thresholds::new(ms(300), ms(500))
    }

    /// Builds an AWG with a single chain of the given (key, c_ms, n).
    fn chain(entries: &[(AwgKey, u64, u64)]) -> AggregatedWaitGraph {
        let mut g = AggregatedWaitGraph::default();
        for (i, &(key, c, n)) in entries.iter().enumerate() {
            g.nodes.push(AwgNode {
                key,
                parent: if i == 0 {
                    None
                } else {
                    Some(AwgId(i as u32 - 1))
                },
                children: Vec::new(),
                c: ms(c),
                n,
                c_max: ms(c.checked_div(n).unwrap_or(0)),
                examples: Vec::new(),
            });
            if i > 0 {
                g.nodes[i - 1].children.push(AwgId(i as u32));
            }
        }
        if !entries.is_empty() {
            g.roots.push(AwgId(0));
        }
        g.source_graphs = 1;
        g
    }

    fn wkey(w: u32, u: u32) -> AwgKey {
        AwgKey::Waiting {
            w: Symbol(w),
            u: Some(Symbol(u)),
        }
    }

    fn rkey(r: u32) -> AwgKey {
        AwgKey::Running { r: Symbol(r) }
    }

    #[test]
    fn slow_only_chain_is_discovered() {
        // Fast class: short app-ish chain; slow class: the fv→fs→se chain.
        let fast = chain(&[(wkey(0, 1), 50, 5), (rkey(2), 20, 5)]);
        let slow = chain(&[
            (wkey(10, 11), 3000, 5),
            (wkey(12, 13), 2800, 5),
            (rkey(14), 2000, 5),
        ]);
        let (patterns, stats) = mine_contrasts(&fast, &slow, thresholds(), 5);
        assert!(stats.contrast_metas > 0);
        assert_eq!(stats.slow_paths, 1);
        assert_eq!(patterns.len(), 1);
        let p = &patterns[0];
        assert_eq!(p.n, 5);
        assert_eq!(p.c, ms(2000), "P.C is the end node's cost");
        assert_eq!(p.avg_cost(), ms(400));
        // c_max is the root wait's largest single execution (600 ms).
        assert_eq!(p.c_max, ms(600));
        assert!(p.is_high_impact(ms(500)));
        assert!(!p.is_high_impact(ms(700)));
        assert_eq!(p.tuple.wait.len(), 2);
        assert_eq!(p.tuple.unwait.len(), 2);
        assert_eq!(p.tuple.running.len(), 1);
    }

    #[test]
    fn common_pattern_below_ratio_is_not_contrast() {
        // Same chain in both classes, slow only slightly worse than fast:
        // ratio 1.2 < Tslow/Tfast (5/3) → no contrast.
        let fast = chain(&[(wkey(0, 1), 100, 10), (rkey(2), 50, 10)]);
        let slow = chain(&[(wkey(0, 1), 120, 10), (rkey(2), 60, 10)]);
        let (patterns, stats) = mine_contrasts(&fast, &slow, thresholds(), 5);
        assert_eq!(stats.contrast_metas, 0);
        assert!(patterns.is_empty());
    }

    #[test]
    fn common_pattern_above_ratio_is_contrast() {
        // Same chain, but 10× average cost in the slow class.
        let fast = chain(&[(wkey(0, 1), 100, 10), (rkey(2), 50, 10)]);
        let slow = chain(&[(wkey(0, 1), 1000, 10), (rkey(2), 500, 10)]);
        let (patterns, stats) = mine_contrasts(&fast, &slow, thresholds(), 5);
        assert!(stats.contrast_metas > 0);
        assert_eq!(patterns.len(), 1);
    }

    #[test]
    fn ranking_is_by_average_cost() {
        let fast = chain(&[]);
        // Two slow chains with distinct signatures and different averages.
        let mut slow = chain(&[(wkey(0, 1), 1000, 10), (rkey(2), 600, 10)]); // avg 60
        let base = slow.nodes.len() as u32;
        slow.nodes.push(AwgNode {
            key: wkey(20, 21),
            parent: None,
            children: vec![AwgId(base + 1)],
            c: ms(900),
            n: 3,
            c_max: ms(300),
            examples: Vec::new(),
        });
        slow.nodes.push(AwgNode {
            key: rkey(22),
            parent: Some(AwgId(base)),
            children: Vec::new(),
            c: ms(600),
            n: 3,
            c_max: ms(200),
            examples: Vec::new(),
        });
        slow.roots.push(AwgId(base));
        let (patterns, _) = mine_contrasts(&fast, &slow, thresholds(), 5);
        assert_eq!(patterns.len(), 2);
        assert!(patterns[0].avg_cost() >= patterns[1].avg_cost());
        assert_eq!(patterns[0].avg_cost(), ms(200));
    }

    #[test]
    fn empty_classes_yield_no_patterns() {
        let (patterns, stats) = mine_contrasts(&chain(&[]), &chain(&[]), thresholds(), 5);
        assert!(patterns.is_empty());
        assert_eq!(stats.slow_paths, 0);
    }

    #[test]
    fn identical_path_tuples_merge() {
        // Two slow roots with the same signatures in different orders
        // would merge; here emulate by two identical chains under
        // different parents — the trie already merges those, so instead
        // check a root with two leaf children of the same signature...
        // which also merges in the trie. The merge in mine_contrasts is
        // therefore exercised by paths whose *sets* coincide though their
        // sequences differ:
        //   root A: wait(1,2) -> wait(3,4) -> run(5)
        //   root B: wait(3,4) -> wait(1,2) -> run(5)
        let mut slow = chain(&[
            (wkey(1, 2), 1000, 2),
            (wkey(3, 4), 900, 2),
            (rkey(5), 800, 2),
        ]);
        let b0 = slow.nodes.len() as u32;
        for (i, &(key, c, n)) in [
            (wkey(3, 4), 1000u64, 2u64),
            (wkey(1, 2), 900, 2),
            (rkey(5), 700, 2),
        ]
        .iter()
        .enumerate()
        {
            slow.nodes.push(AwgNode {
                key,
                parent: if i == 0 {
                    None
                } else {
                    Some(AwgId(b0 + i as u32 - 1))
                },
                children: Vec::new(),
                c: ms(c),
                n,
                c_max: ms(c / n),
                examples: Vec::new(),
            });
            if i > 0 {
                let parent = b0 + i as u32 - 1;
                slow.nodes[parent as usize]
                    .children
                    .push(AwgId(b0 + i as u32));
            }
        }
        slow.roots.push(AwgId(b0));
        let fast = chain(&[]);
        let (patterns, stats) = mine_contrasts(&fast, &slow, thresholds(), 5);
        assert_eq!(stats.slow_paths, 2);
        assert_eq!(patterns.len(), 1, "order-insensitive tuples merge");
        assert_eq!(patterns[0].n, 4);
        assert_eq!(patterns[0].c, ms(1500));
    }
}
