//! # topo — interconnect topologies and routing
//!
//! Models the three interconnects of the HPCA'97 study:
//!
//! * [`Torus3d`] — the Cray T3D's 3-D bidirectional torus with
//!   dimension-ordered routing;
//! * [`Mesh2d`] — the Intel Paragon's 2-D mesh with XY (dimension-ordered)
//!   wormhole routing;
//! * [`Omega`] — the IBM SP2's multistage switch network (Vulcan switch
//!   boards), modeled as a k-ary Omega network with self-routing;
//! * [`Graph`] — an arbitrary adjacency-list topology with shortest-path
//!   routing, used for tests and custom machines;
//! * [`Crossbar`] — an ideal contention-free single-hop network, the
//!   "perfect interconnect" baseline for ablations;
//! * [`Hypercube`] — the classic binary e-cube for what-if studies;
//! * [`FatTree`] — up/down-routed k-ary fat tree, the alternative SP2
//!   interconnect abstraction used in the robustness ablation.
//!
//! Every topology enumerates its unidirectional links with dense ids so
//! that the network model can attach one contention
//! [`FifoResource`](desim::resource::FifoResource) per link, and exposes
//! deterministic routes as link-id sequences.
//!
//! # Examples
//!
//! ```
//! use topo::{Mesh2d, NodeId, Topology};
//!
//! let mesh = Mesh2d::new(4, 4);
//! let route = mesh.route(NodeId(0), NodeId(15));
//! assert_eq!(route.hops(), 6); // 3 hops in X then 3 in Y
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod crossbar;
pub mod fattree;
pub mod graph;
pub mod hypercube;
pub mod mesh;
pub mod omega;
pub mod torus;

pub use crossbar::Crossbar;
pub use fattree::FatTree;
pub use graph::Graph;
pub use hypercube::Hypercube;
pub use mesh::Mesh2d;
pub use omega::Omega;
pub use torus::Torus3d;

use core::fmt;

/// A node (processing element) index within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

/// A unidirectional link index within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinkId(pub usize);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A route through the network: the ordered unidirectional links a message
/// traverses from source to destination.
///
/// An intra-node route (source == destination) has no links.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Route {
    links: Vec<LinkId>,
}

impl Route {
    /// A route with no network hops (local delivery).
    pub fn local() -> Self {
        Route { links: Vec::new() }
    }

    /// Builds a route from an ordered link sequence.
    pub fn from_links(links: Vec<LinkId>) -> Self {
        Route { links }
    }

    /// Number of link traversals (hops).
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// True for a local (zero-hop) route.
    pub fn is_local(&self) -> bool {
        self.links.is_empty()
    }

    /// The link sequence.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }
}

impl<'a> IntoIterator for &'a Route {
    type Item = LinkId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, LinkId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.links.iter().copied()
    }
}

/// A network topology: a set of nodes joined by unidirectional links, with
/// a deterministic routing function.
///
/// This trait is object-safe; machine models hold `Box<dyn Topology>`.
pub trait Topology {
    /// Number of processing nodes.
    fn nodes(&self) -> usize;

    /// Number of unidirectional links (dense id space `0..links()`).
    fn links(&self) -> usize;

    /// Writes the deterministic route from `src` to `dst` into `out`,
    /// replacing its contents. The allocation-free form of
    /// [`Topology::route`]: the network model routes every message into
    /// one reused buffer.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range.
    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>);

    /// The deterministic route from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range.
    fn route(&self, src: NodeId, dst: NodeId) -> Route {
        let mut links = Vec::new();
        self.route_into(src, dst, &mut links);
        Route::from_links(links)
    }

    /// Short human-readable description, e.g. `"3-D torus 4x4x4"`.
    fn describe(&self) -> String;

    /// Relative capacity of a link (1.0 = one base link). Fat topologies
    /// override this for their aggregated upper-level links; the wire
    /// model divides a message's link-occupancy time by it.
    fn link_capacity(&self, _link: LinkId) -> f64 {
        1.0
    }

    /// Hop count between two nodes (route length).
    fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        self.route(src, dst).hops()
    }

    /// Largest hop count over all node pairs. O(n^2 · route); for analysis
    /// and tests, not hot paths.
    fn diameter(&self) -> usize {
        let n = self.nodes();
        let mut best = 0;
        for s in 0..n {
            for d in 0..n {
                best = best.max(self.hops(NodeId(s), NodeId(d)));
            }
        }
        best
    }

    /// Mean hop count over all ordered distinct pairs.
    fn mean_distance(&self) -> f64 {
        let n = self.nodes();
        if n < 2 {
            return 0.0;
        }
        let mut total = 0usize;
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    total += self.hops(NodeId(s), NodeId(d));
                }
            }
        }
        total as f64 / (n * (n - 1)) as f64
    }
}

/// Validates that `route` starts at `src` and ends at `dst` given an
/// endpoint oracle; used by each topology's tests.
#[doc(hidden)]
pub fn assert_route_connected(
    route: &Route,
    src: NodeId,
    dst: NodeId,
    endpoints: impl Fn(LinkId) -> (NodeId, NodeId),
) {
    if src == dst {
        assert!(route.is_local(), "self-route must be local");
        return;
    }
    assert!(!route.is_local(), "distinct nodes need at least one hop");
    let mut at = src;
    for link in route {
        let (from, to) = endpoints(link);
        assert_eq!(from, at, "route discontinuity at {link}");
        at = to;
    }
    assert_eq!(at, dst, "route does not terminate at destination");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_basics() {
        let r = Route::local();
        assert!(r.is_local());
        assert_eq!(r.hops(), 0);
        let r = Route::from_links(vec![LinkId(3), LinkId(5)]);
        assert_eq!(r.hops(), 2);
        assert_eq!(r.links(), &[LinkId(3), LinkId(5)]);
        let collected: Vec<LinkId> = (&r).into_iter().collect();
        assert_eq!(collected, vec![LinkId(3), LinkId(5)]);
    }

    #[test]
    fn route_into_replaces_a_reused_buffer() {
        let mut g = Graph::new(4);
        for i in 0..4 {
            g.add_bidi(NodeId(i), NodeId((i + 1) % 4));
        }
        let nets: [Box<dyn Topology>; 7] = [
            Box::new(Torus3d::new(4, 2, 2)),
            Box::new(Mesh2d::new(4, 3)),
            Box::new(Omega::new(16, 4)),
            Box::new(Crossbar::new(5)),
            Box::new(Hypercube::new(3)),
            Box::new(FatTree::new(16, 4)),
            Box::new(g),
        ];
        for t in &nets {
            // One buffer across every pair, self-routes included: each
            // call must leave exactly that pair's route behind.
            let mut buf = vec![LinkId(usize::MAX); 9];
            for s in 0..t.nodes() {
                for d in 0..t.nodes() {
                    t.route_into(NodeId(s), NodeId(d), &mut buf);
                    let route = t.route(NodeId(s), NodeId(d));
                    assert_eq!(buf, route.links(), "{} {s}->{d}", t.describe());
                    assert_eq!(buf.is_empty(), s == d, "{}", t.describe());
                }
            }
        }
    }

    #[test]
    fn ids_display() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(LinkId(9).to_string(), "l9");
        assert_eq!(NodeId::from(2), NodeId(2));
    }
}
