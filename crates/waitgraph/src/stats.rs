//! Summary statistics over a Wait Graph.

use crate::graph::{NodeKind, WaitGraph};
use tracelens_model::TimeNs;

/// Aggregate statistics of one [`WaitGraph`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Total nodes.
    pub nodes: usize,
    /// Wait nodes (paired + unpaired).
    pub wait_nodes: usize,
    /// Running nodes.
    pub running_nodes: usize,
    /// Hardware-service nodes.
    pub hardware_nodes: usize,
    /// Maximum depth (root = 0); zero for an empty graph.
    pub max_depth: usize,
    /// Sum of root-level wait durations.
    pub root_wait_time: TimeNs,
    /// Sum of hardware-service durations anywhere in the graph.
    pub hardware_time: TimeNs,
}

impl GraphStats {
    /// Computes statistics for `graph`.
    pub fn of(graph: &WaitGraph) -> GraphStats {
        let mut s = GraphStats::default();
        for (depth, id) in graph.dfs() {
            let n = graph.node(id);
            s.nodes += 1;
            s.max_depth = s.max_depth.max(depth);
            match n.kind {
                NodeKind::Wait { .. } | NodeKind::UnpairedWait => {
                    s.wait_nodes += 1;
                    if depth == 0 {
                        s.root_wait_time += n.duration;
                    }
                }
                NodeKind::Running => s.running_nodes += 1,
                NodeKind::Hardware => {
                    s.hardware_nodes += 1;
                    s.hardware_time += n.duration;
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::StreamIndex;
    use tracelens_model::{
        ScenarioInstance, ScenarioName, StackTable, ThreadId, TimeNs, TraceId, TraceStreamBuilder,
    };

    #[test]
    fn counts_kinds_and_depth() {
        let mut stacks = StackTable::new();
        let s0 = stacks.intern_symbols(&["a!b"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(1), TimeNs(0), TimeNs::ZERO, s0);
        b.push_hardware(ThreadId(2), TimeNs(0), TimeNs(8), s0);
        b.push_running(ThreadId(2), TimeNs(8), TimeNs(2), s0);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(10), s0);
        let stream = b.finish().unwrap();
        let idx = StreamIndex::new(&stream);
        let wg = crate::WaitGraph::build(
            &stream,
            &idx,
            &ScenarioInstance {
                trace: TraceId(0),
                scenario: ScenarioName::new("T"),
                tid: ThreadId(1),
                t0: TimeNs(0),
                t1: TimeNs(20),
            },
        );
        let stats = GraphStats::of(&wg);
        assert_eq!(stats.nodes, 3);
        assert_eq!(stats.wait_nodes, 1);
        assert_eq!(stats.running_nodes, 1);
        assert_eq!(stats.hardware_nodes, 1);
        assert_eq!(stats.max_depth, 1);
        assert_eq!(stats.root_wait_time, TimeNs(10));
        assert_eq!(stats.hardware_time, TimeNs(8));
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let wg = crate::WaitGraph::from_parts(TraceId(0), Vec::new(), Vec::new(), Vec::new());
        assert_eq!(GraphStats::of(&wg), GraphStats::default());
    }
}
