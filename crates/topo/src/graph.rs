//! Arbitrary adjacency-list topology with shortest-path routing.
//!
//! Used for unit tests, irregular clusters, and as a reference
//! implementation to cross-check the structured topologies: a `Graph`
//! built with the same edges as a mesh or torus must produce routes of
//! identical length.

use std::collections::VecDeque;

use crate::{LinkId, NodeId, Topology};

/// A directed graph topology. Links are numbered in insertion order.
///
/// Routing is breadth-first shortest path with deterministic tie-breaking
/// (lowest neighbor id first), searched afresh on every call.
///
/// # Examples
///
/// ```
/// use topo::{Graph, NodeId, Topology};
///
/// // A 3-node ring.
/// let mut g = Graph::new(3);
/// g.add_bidi(NodeId(0), NodeId(1));
/// g.add_bidi(NodeId(1), NodeId(2));
/// g.add_bidi(NodeId(2), NodeId(0));
/// assert_eq!(g.hops(NodeId(0), NodeId(2)), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    n: usize,
    /// (from, to) per link id.
    edges: Vec<(NodeId, NodeId)>,
    /// adjacency: node -> [(neighbor, link)]
    adj: Vec<Vec<(NodeId, LinkId)>>,
}

impl Graph {
    /// Creates a graph with `n` nodes and no links.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Adds a unidirectional link and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the link is a self-loop.
    pub fn add_link(&mut self, from: NodeId, to: NodeId) -> LinkId {
        assert!(from.0 < self.n && to.0 < self.n, "endpoint out of range");
        assert_ne!(from, to, "self-loops are not allowed");
        let id = LinkId(self.edges.len());
        self.edges.push((from, to));
        self.adj[from.0].push((to, id));
        id
    }

    /// Adds a pair of opposing links, returning `(forward, backward)` ids.
    pub fn add_bidi(&mut self, a: NodeId, b: NodeId) -> (LinkId, LinkId) {
        (self.add_link(a, b), self.add_link(b, a))
    }

    /// Endpoints `(from, to)` of a link.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn endpoints(&self, l: LinkId) -> (NodeId, NodeId) {
        self.edges[l.0]
    }

    /// True when a path exists between every ordered pair of nodes.
    pub fn is_strongly_connected(&self) -> bool {
        (0..self.n).all(|s| {
            let parent = self.bfs(NodeId(s));
            parent
                .iter()
                .enumerate()
                .all(|(d, p)| d == s || p.is_some())
        })
    }

    /// BFS parent links from `src`; index d holds the link used to reach d.
    fn bfs(&self, src: NodeId) -> Vec<Option<LinkId>> {
        let mut parent: Vec<Option<LinkId>> = vec![None; self.n];
        let mut seen = vec![false; self.n];
        seen[src.0] = true;
        let mut q = VecDeque::from([src]);
        while let Some(u) = q.pop_front() {
            let mut nbrs = self.adj[u.0].clone();
            nbrs.sort_unstable_by_key(|&(v, _)| v);
            for (v, l) in nbrs {
                if !seen[v.0] {
                    seen[v.0] = true;
                    parent[v.0] = Some(l);
                    q.push_back(v);
                }
            }
        }
        parent[src.0] = None;
        parent
    }
}

impl Topology for Graph {
    fn nodes(&self) -> usize {
        self.n
    }

    fn links(&self) -> usize {
        self.edges.len()
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        assert!(src.0 < self.n && dst.0 < self.n, "node out of range");
        out.clear();
        if src == dst {
            return;
        }
        let parent = self.bfs(src);
        let mut at = dst;
        while at != src {
            let Some(l) = parent[at.0] else {
                panic!("no route from {src} to {dst}: graph is disconnected");
            };
            out.push(l);
            at = self.edges[l.0].0;
        }
        out.reverse();
    }

    fn describe(&self) -> String {
        format!("graph with {} nodes, {} links", self.n, self.edges.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_route_connected;
    use crate::mesh::Mesh2d;

    fn ring(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_bidi(NodeId(i), NodeId((i + 1) % n));
        }
        g
    }

    #[test]
    fn ring_routes() {
        let g = ring(6);
        assert_eq!(g.hops(NodeId(0), NodeId(3)), 3);
        assert_eq!(g.hops(NodeId(0), NodeId(5)), 1, "takes the short way");
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn routes_are_connected() {
        let g = ring(5);
        for s in 0..5 {
            for d in 0..5 {
                let r = g.route(NodeId(s), NodeId(d));
                assert_route_connected(&r, NodeId(s), NodeId(d), |l| g.endpoints(l));
            }
        }
    }

    #[test]
    fn matches_mesh_distances() {
        // A graph with the same edges as a 4x3 mesh gives equal hop counts.
        let mesh = Mesh2d::new(4, 3);
        let mut g = Graph::new(12);
        for y in 0..3usize {
            for x in 0..4usize {
                let n = NodeId(x + 4 * y);
                if x + 1 < 4 {
                    g.add_bidi(n, NodeId(x + 1 + 4 * y));
                }
                if y + 1 < 3 {
                    g.add_bidi(n, NodeId(x + 4 * (y + 1)));
                }
            }
        }
        for s in 0..12 {
            for d in 0..12 {
                assert_eq!(
                    g.hops(NodeId(s), NodeId(d)),
                    mesh.hops(NodeId(s), NodeId(d)),
                    "pair ({s},{d})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_route_panics() {
        let mut g = Graph::new(3);
        g.add_bidi(NodeId(0), NodeId(1));
        g.route(NodeId(0), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        Graph::new(2).add_link(NodeId(1), NodeId(1));
    }

    #[test]
    fn connectivity_detects_directed_gaps() {
        let mut g = Graph::new(2);
        g.add_link(NodeId(0), NodeId(1));
        assert!(!g.is_strongly_connected(), "no way back from 1 to 0");
        g.add_link(NodeId(1), NodeId(0));
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn diameter_of_ring() {
        assert_eq!(ring(8).diameter(), 4);
    }
}
