//! The Wait Graph structure (Definition 1).

use std::fmt;
use tracelens_model::{EventId, StackId, ThreadId, TimeNs, TraceId};

/// Handle to a node within a [`WaitGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a Wait-Graph node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A running (CPU sample) event.
    Running,
    /// A wait event, already paired with its unwait event: `unwait_*`
    /// describe the signalling side, used later when the Aggregated Wait
    /// Graph merges the pair into a single waiting node.
    Wait {
        /// The paired unwait event in the source stream.
        unwait: EventId,
        /// Callstack of the unwait event.
        unwait_stack: StackId,
        /// Thread that signalled.
        unwait_tid: ThreadId,
    },
    /// A wait event whose unwait was never observed (truncated trace);
    /// its duration is clipped to the instance end.
    UnpairedWait,
    /// A hardware-service event.
    Hardware,
}

impl NodeKind {
    /// Whether this node is a (paired or unpaired) wait.
    pub fn is_wait(&self) -> bool {
        matches!(self, NodeKind::Wait { .. } | NodeKind::UnpairedWait)
    }
}

/// One node: a tracing event, its timing, and where its children sit
/// in the graph's child array ([`WaitGraph::children`]). A node owns no
/// heap memory of its own.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    /// The source event's id within its trace stream.
    pub event: EventId,
    /// Kind and pairing information.
    pub kind: NodeKind,
    /// Thread that emitted the event.
    pub tid: ThreadId,
    /// Event callstack.
    pub stack: StackId,
    /// Event start time.
    pub t: TimeNs,
    /// Event duration; for wait nodes this is the *restored* duration
    /// (unwait timestamp minus wait timestamp).
    pub duration: TimeNs,
    /// Start of this node's run in the graph's child array.
    first_child: u32,
    /// Length of that run (only wait nodes have children).
    child_count: u32,
}

impl Node {
    /// A node with no children yet.
    pub(crate) fn leaf(
        event: EventId,
        kind: NodeKind,
        tid: ThreadId,
        stack: StackId,
        t: TimeNs,
        duration: TimeNs,
    ) -> Node {
        Node {
            event,
            kind,
            tid,
            stack,
            t,
            duration,
            first_child: 0,
            child_count: 0,
        }
    }

    /// Points the node at `children[first..end]` of its graph.
    pub(crate) fn set_children(&mut self, first: usize, end: usize) {
        self.first_child = first as u32;
        self.child_count = (end - first) as u32;
    }
}

/// A Wait Graph for a single scenario instance (Definition 1).
///
/// Nodes form a forest: roots are the top-level events of the initiating
/// thread within the instance window; every edge starts at a wait node.
/// The same source *event* may back multiple nodes (two waits can be
/// signalled through the same thread), which is how cost propagation
/// across instances manifests.
///
/// Every node's child list is a contiguous run of one flat array, so a
/// graph is three allocations however many nodes it has.
#[derive(Debug, Clone)]
pub struct WaitGraph {
    trace: TraceId,
    nodes: Vec<Node>,
    children: Vec<NodeId>,
    roots: Vec<NodeId>,
}

impl WaitGraph {
    pub(crate) fn from_parts(
        trace: TraceId,
        nodes: Vec<Node>,
        children: Vec<NodeId>,
        roots: Vec<NodeId>,
    ) -> Self {
        WaitGraph {
            trace,
            nodes,
            children,
            roots,
        }
    }

    /// The trace stream this graph was built from.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// Root node ids (top-level events of the initiating thread).
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The children of node `id`: nodes whose operations execute within
    /// its wait interval, in time order (empty unless it is a wait).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let node = self.node(id);
        let start = node.first_child as usize;
        &self.children[start..start + node.child_count as usize]
    }

    /// All nodes in creation order (parents before their children).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates nodes in depth-first pre-order from the roots, yielding
    /// `(depth, NodeId)`.
    pub fn dfs(&self) -> Dfs<'_> {
        Dfs {
            graph: self,
            stack: self.roots.iter().rev().map(|&r| (0, r)).collect(),
        }
    }

    /// The *dominant path* of the instance: starting from the
    /// longest-duration root wait, repeatedly descend into the child
    /// with the largest duration — the operation that explains the bulk
    /// of each wait. Empty if the graph has no wait roots.
    ///
    /// This is the chain an analyst walks in Figure 1: UI wait → worker
    /// wait → … → the disk service at the bottom.
    pub fn dominant_path(&self) -> Vec<NodeId> {
        let Some(&root) = self
            .roots
            .iter()
            .filter(|&&r| self.node(r).kind.is_wait())
            .max_by_key(|&&r| self.node(r).duration)
        else {
            return Vec::new();
        };
        let mut path = vec![root];
        let mut cur = root;
        while let Some(&next) = self
            .children(cur)
            .iter()
            .max_by_key(|&&c| self.node(c).duration)
        {
            path.push(next);
            cur = next;
        }
        path
    }
}

impl tracelens_model::HeapSize for WaitGraph {
    fn heap_size(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + (self.children.capacity() + self.roots.capacity()) * std::mem::size_of::<NodeId>()
    }
}

/// Depth-first pre-order traversal over a [`WaitGraph`].
#[derive(Debug)]
pub struct Dfs<'a> {
    graph: &'a WaitGraph,
    stack: Vec<(usize, NodeId)>,
}

impl Iterator for Dfs<'_> {
    type Item = (usize, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        let (depth, id) = self.stack.pop()?;
        for &c in self.graph.children(id).iter().rev() {
            self.stack.push((depth + 1, c));
        }
        Some((depth, id))
    }
}

#[cfg(test)]
impl WaitGraph {
    /// A graph from nodes listed with their children.
    pub(crate) fn from_lists(
        trace: TraceId,
        lists: Vec<(Node, Vec<NodeId>)>,
        roots: Vec<NodeId>,
    ) -> Self {
        let mut children = Vec::new();
        let nodes = lists
            .into_iter()
            .map(|(mut node, kids)| {
                node.first_child = children.len() as u32;
                node.child_count = kids.len() as u32;
                children.extend(kids);
                node
            })
            .collect();
        WaitGraph::from_parts(trace, nodes, children, roots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_model::StackId;

    fn leaf(event: u32, t: u64, dur: u64) -> (Node, Vec<NodeId>) {
        let node = Node::leaf(
            EventId(event),
            NodeKind::Running,
            ThreadId(1),
            StackId(0),
            TimeNs(t),
            TimeNs(dur),
        );
        (node, Vec::new())
    }

    fn wait(event: u32, t: u64, dur: u64, children: Vec<NodeId>) -> (Node, Vec<NodeId>) {
        let kind = NodeKind::Wait {
            unwait: EventId(99),
            unwait_stack: StackId(0),
            unwait_tid: ThreadId(2),
        };
        let node = Node::leaf(
            EventId(event),
            kind,
            ThreadId(1),
            StackId(0),
            TimeNs(t),
            TimeNs(dur),
        );
        (node, children)
    }

    #[test]
    fn node_is_compact() {
        assert!(std::mem::size_of::<Node>() <= 56);
    }

    #[test]
    fn dfs_preorder() {
        // root wait -> [leaf a, leaf b]
        let g = WaitGraph::from_lists(
            TraceId(0),
            vec![
                wait(0, 0, 10, vec![NodeId(1), NodeId(2)]),
                leaf(1, 1, 2),
                leaf(2, 3, 2),
            ],
            vec![NodeId(0)],
        );
        let order: Vec<(usize, u32)> = g.dfs().map(|(d, n)| (d, n.0)).collect();
        assert_eq!(order, [(0, 0), (1, 1), (1, 2)]);
        assert_eq!(g.node_count(), 3);
        assert!(!g.is_empty());
        assert!(g.node(NodeId(0)).kind.is_wait());
        assert!(!g.node(NodeId(1)).kind.is_wait());
        assert_eq!(g.children(NodeId(0)), [NodeId(1), NodeId(2)]);
        assert!(g.children(NodeId(2)).is_empty());
    }

    #[test]
    fn empty_graph() {
        let g = WaitGraph::from_parts(TraceId(3), Vec::new(), Vec::new(), Vec::new());
        assert!(g.is_empty());
        assert_eq!(g.dfs().count(), 0);
        assert_eq!(g.trace(), TraceId(3));
        assert!(g.dominant_path().is_empty());
    }

    #[test]
    fn dominant_path_follows_largest_children() {
        // Root wait [0,100); children: a short leaf and a nested wait
        // carrying most of the time, whose own child is the disk op.
        let nodes = vec![
            wait(0, 0, 100, vec![NodeId(1), NodeId(2)]), // n0 root
            leaf(1, 20, 20),                             // n1 ends 40
            wait(2, 10, 85, vec![NodeId(3)]),            // n2 ends 95
            leaf(3, 30, 60),                             // n3 ends 90
        ];
        let g = WaitGraph::from_lists(TraceId(0), nodes, vec![NodeId(0)]);
        let path: Vec<u32> = g.dominant_path().iter().map(|n| n.0).collect();
        assert_eq!(path, [0, 2, 3]);
    }

    #[test]
    fn dominant_path_picks_longest_wait_root() {
        let nodes = vec![
            wait(0, 0, 10, vec![]),
            wait(1, 20, 50, vec![]),
            leaf(2, 80, 100), // running roots are not chain starts
        ];
        let g = WaitGraph::from_lists(TraceId(0), nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(g.dominant_path(), vec![NodeId(1)]);
    }
}
