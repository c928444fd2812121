//! Labelled undirected graph with Dijkstra routing, and the all-pairs
//! [`RouteTable`] a [`super::Network`] builds from it once.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use super::Link;
use crate::{Error, Result};

/// Identifies a node in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Constructs from a raw index (mostly for tests).
    pub fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(u32);

impl LinkId {
    /// The raw index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct LinkEntry {
    a: NodeId,
    b: NodeId,
    link: Link,
}

/// An undirected graph of labelled nodes and [`Link`]s.
///
/// Routing is shortest-path by propagation latency (Dijkstra).
/// [`Topology::route`] runs one search per call; it is the reference a
/// [`super::Network`]'s route table is built from and tested against, and
/// nothing on a send path calls it — a network owns its topology, so it
/// computes every route once at construction and sends read the table.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    labels: Vec<String>,
    adj: Vec<Vec<(NodeId, LinkId)>>,
    links: Vec<LinkEntry>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(label.into());
        self.adj.push(Vec::new());
        id
    }

    /// Adds an undirected link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownNode`] if either endpoint does not exist,
    /// * [`Error::SelfLink`] if `a == b`,
    /// * [`Error::DuplicateLink`] if the pair is already connected.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, link: Link) -> Result<LinkId> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(Error::SelfLink { node: a });
        }
        if self.adj[a.index()].iter().any(|(n, _)| *n == b) {
            return Err(Error::DuplicateLink { a, b });
        }
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkEntry { a, b, link });
        self.adj[a.index()].push((b, id));
        self.adj[b.index()].push((a, id));
        Ok(id)
    }

    fn check_node(&self, n: NodeId) -> Result<()> {
        if n.index() < self.labels.len() {
            Ok(())
        } else {
            Err(Error::UnknownNode { node: n })
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of links.
    pub(crate) fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The link behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale (ids are only minted by `add_link`).
    pub(crate) fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()].link
    }

    /// Endpoints of a link.
    pub fn link_endpoints(&self, id: LinkId) -> (NodeId, NodeId) {
        let e = &self.links[id.index()];
        (e.a, e.b)
    }

    /// Neighbors of `node` with the connecting link ids.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, LinkId)] {
        &self.adj[node.index()]
    }

    /// Shortest path (by total latency) from `from` to `to`, as link ids in
    /// traversal order. An empty path means `from == to`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownNode`] or [`Error::NoRoute`].
    pub fn route(&self, from: NodeId, to: NodeId) -> Result<Vec<LinkId>> {
        self.check_node(from)?;
        self.check_node(to)?;
        let mut path = Vec::new();
        if from != to {
            let prev = self.shortest_path_tree(from, Some(to));
            if !trace_back(&prev, from, to, &mut path) {
                return Err(Error::NoRoute { from, to });
            }
        }
        Ok(path)
    }

    /// Dijkstra from `from`: every settled node's predecessor `(node,
    /// link)` on its shortest path (`None` for `from` itself and for
    /// unreachable nodes). With `stop_at` the search ends once that node
    /// is settled and only its ancestors' entries are final.
    ///
    /// A node's entry is final when it is popped, and pops are ordered by
    /// `(distance, NodeId)` whether or not the search stops early — so the
    /// full tree and a stopped search agree on every path, ties included.
    fn shortest_path_tree(
        &self,
        from: NodeId,
        stop_at: Option<NodeId>,
    ) -> Vec<Option<(NodeId, LinkId)>> {
        let n = self.node_count();
        let mut dist = vec![u64::MAX; n];
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[from.index()] = 0;
        heap.push(Reverse((0u64, from)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u.index()] {
                continue;
            }
            if Some(u) == stop_at {
                break;
            }
            for &(v, lid) in &self.adj[u.index()] {
                let w = self.links[lid.index()].link.latency().as_micros().max(1);
                let nd = d + w;
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    prev[v.index()] = Some((u, lid));
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        prev
    }
}

/// Appends the links of the tree path `from → to` to `out` in traversal
/// order; `false` (nothing appended) when `to` is unreachable.
fn trace_back(
    prev: &[Option<(NodeId, LinkId)>],
    from: NodeId,
    to: NodeId,
    out: &mut Vec<LinkId>,
) -> bool {
    let start = out.len();
    let mut cur = to;
    while cur != from {
        let Some((p, lid)) = prev[cur.index()] else {
            out.truncate(start);
            return false;
        };
        out.push(lid);
        cur = p;
    }
    out[start..].reverse();
    true
}

/// Every shortest path of a [`Topology`], computed once: one Dijkstra
/// tree per source (n searches, not n²), flattened into one `LinkId` run
/// per ordered pair. A topology cannot change once a [`super::Network`]
/// owns it, and routing ignores the failure plan (outages are checked per
/// hop on the fixed path), so the table never needs invalidating.
///
/// Space is n² offsets plus the summed path lengths — about 145 KB for the
/// 84-node Barcelona graph; this is a table for city-sized graphs.
#[derive(Debug)]
pub(super) struct RouteTable {
    nodes: usize,
    /// Pair `(from, to)` owns `links[offsets[i]..offsets[i + 1]]` with
    /// `i = from * nodes + to`; empty for `from == to` and for pairs with
    /// no route.
    offsets: Vec<u32>,
    links: Vec<LinkId>,
}

impl RouteTable {
    /// The table of `topo`: exactly the paths [`Topology::route`] returns.
    pub(super) fn build(topo: &Topology) -> Self {
        let nodes = topo.node_count();
        let mut offsets = Vec::with_capacity(nodes * nodes + 1);
        let mut links = Vec::new();
        offsets.push(0);
        for from in (0..nodes as u32).map(NodeId) {
            let prev = topo.shortest_path_tree(from, None);
            for to in (0..nodes as u32).map(NodeId) {
                trace_back(&prev, from, to, &mut links);
                offsets.push(links.len() as u32);
            }
        }
        Self {
            nodes,
            offsets,
            links,
        }
    }

    /// The path [`Topology::route`] computes for the pair, borrowed.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownNode`] or [`Error::NoRoute`], as [`Topology::route`].
    pub(super) fn path(&self, from: NodeId, to: NodeId) -> Result<&[LinkId]> {
        for node in [from, to] {
            if node.index() >= self.nodes {
                return Err(Error::UnknownNode { node });
            }
        }
        let i = from.index() * self.nodes + to.index();
        let path = &self.links[self.offsets[i] as usize..self.offsets[i + 1] as usize];
        if path.is_empty() && from != to {
            return Err(Error::NoRoute { from, to });
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn l(ms: u64) -> Link {
        Link::new(Duration::from_millis(ms), 1_000_000_000)
    }

    #[test]
    fn route_picks_lowest_latency_path() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        // Direct a-c is slow; a-b-c is faster.
        t.add_link(a, c, l(100)).unwrap();
        let ab = t.add_link(a, b, l(10)).unwrap();
        let bc = t.add_link(b, c, l(10)).unwrap();
        assert_eq!(t.route(a, c).unwrap(), vec![ab, bc]);
    }

    #[test]
    fn route_to_self_is_empty() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        assert!(t.route(a, a).unwrap().is_empty());
    }

    #[test]
    fn partitioned_graph_has_no_route() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        assert!(matches!(t.route(a, b), Err(Error::NoRoute { .. })));
    }

    #[test]
    fn self_and_duplicate_links_rejected() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        assert!(matches!(
            t.add_link(a, a, l(1)),
            Err(Error::SelfLink { .. })
        ));
        t.add_link(a, b, l(1)).unwrap();
        assert!(matches!(
            t.add_link(a, b, l(2)),
            Err(Error::DuplicateLink { .. })
        ));
        assert!(matches!(
            t.add_link(b, a, l(2)),
            Err(Error::DuplicateLink { .. })
        ));
    }

    #[test]
    fn labels_and_counts() {
        let mut t = Topology::new();
        t.add_node("fog-1/section-07");
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.link_count(), 0);
    }

    #[test]
    fn route_on_a_star_topology() {
        // Hub-and-spoke: every spoke routes through the hub.
        let mut t = Topology::new();
        let hub = t.add_node("hub");
        let spokes: Vec<NodeId> = (0..10).map(|i| t.add_node(format!("s{i}"))).collect();
        for &s in &spokes {
            t.add_link(hub, s, l(5)).unwrap();
        }
        let path = t.route(spokes[0], spokes[9]).unwrap();
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let id = t.add_link(a, b, l(1)).unwrap();
        assert_eq!(t.neighbors(a), &[(b, id)]);
        assert_eq!(t.neighbors(b), &[(a, id)]);
        assert_eq!(t.link_endpoints(id), (a, b));
    }
}
