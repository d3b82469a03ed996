//! Ideal crossbar — a contention-free single-hop interconnect.
//!
//! Not one of the paper's machines, but the natural "perfect network"
//! baseline: every ordered node pair has its own dedicated link, so the
//! only serialization left in the system is the endpoints themselves.
//! Used by the ablation benches to bound how much of a collective's time
//! is network topology versus endpoint software.

use crate::{LinkId, NodeId, Topology};

/// A fully connected crossbar over `n` nodes: one dedicated
/// unidirectional link per ordered pair, all routes a single hop.
///
/// # Examples
///
/// ```
/// use topo::{Crossbar, NodeId, Topology};
///
/// let x = Crossbar::new(16);
/// assert_eq!(x.diameter(), 1);
/// assert_eq!(x.links(), 16 * 15);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crossbar {
    n: usize,
}

impl Crossbar {
    /// Creates a crossbar over `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "node count must be positive");
        Crossbar { n }
    }

    /// The dedicated link id for the ordered pair `(src, dst)`.
    ///
    /// Ids are dense over `src * (n-1) + adjusted(dst)`.
    fn pair_link(&self, src: NodeId, dst: NodeId) -> LinkId {
        let adj = if dst.0 > src.0 { dst.0 - 1 } else { dst.0 };
        LinkId(src.0 * (self.n - 1) + adj)
    }

    /// Endpoints of a link id, for validation.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn endpoints(&self, l: LinkId) -> (NodeId, NodeId) {
        assert!(l.0 < self.links(), "link out of range");
        let src = l.0 / (self.n - 1);
        let adj = l.0 % (self.n - 1);
        let dst = if adj >= src { adj + 1 } else { adj };
        (NodeId(src), NodeId(dst))
    }
}

impl Topology for Crossbar {
    fn nodes(&self) -> usize {
        self.n
    }

    fn links(&self) -> usize {
        if self.n < 2 {
            0
        } else {
            self.n * (self.n - 1)
        }
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        assert!(src.0 < self.n && dst.0 < self.n, "node out of range");
        out.clear();
        if src != dst {
            out.push(self.pair_link(src, dst));
        }
    }

    fn describe(&self) -> String {
        format!("crossbar over {} nodes", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_route_connected;

    #[test]
    fn single_hop_everywhere() {
        let x = Crossbar::new(8);
        for s in 0..8 {
            for d in 0..8 {
                let r = x.route(NodeId(s), NodeId(d));
                assert_route_connected(&r, NodeId(s), NodeId(d), |l| x.endpoints(l));
                if s != d {
                    assert_eq!(r.hops(), 1);
                }
            }
        }
        assert_eq!(x.diameter(), 1);
        assert!((x.mean_distance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn links_are_dedicated_and_dense() {
        let x = Crossbar::new(5);
        let mut seen = std::collections::HashSet::new();
        for s in 0..5 {
            for d in 0..5 {
                if s == d {
                    continue;
                }
                let r = x.route(NodeId(s), NodeId(d));
                let l = r.links()[0];
                assert!(l.0 < x.links());
                assert!(seen.insert(l), "link {l} reused");
                assert_eq!(x.endpoints(l), (NodeId(s), NodeId(d)));
            }
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn degenerate_single_node() {
        let x = Crossbar::new(1);
        assert_eq!(x.links(), 0);
        assert!(x.route(NodeId(0), NodeId(0)).is_local());
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_panics() {
        Crossbar::new(2).route(NodeId(0), NodeId(2));
    }
}
