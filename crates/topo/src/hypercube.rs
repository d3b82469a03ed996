//! Binary hypercube — the classic 1980s MPP interconnect.
//!
//! Not one of the paper's three machines, but the natural "what if"
//! topology for the era (nCUBE, early iPSC): `2^d` nodes, neighbours
//! differ in one address bit, and e-cube (dimension-ordered) routing
//! flips bits lowest-first. Useful with
//! [`MachineBuilder`](../netmodel/struct.MachineBuilder.html)-style
//! custom machines to ask how the paper's collectives would fare on a
//! richer topology.

use crate::{LinkId, NodeId, Topology};

/// A `2^dimensions`-node binary hypercube with e-cube routing.
///
/// # Examples
///
/// ```
/// use topo::{Hypercube, NodeId, Topology};
///
/// let h = Hypercube::new(6); // 64 nodes
/// assert_eq!(h.nodes(), 64);
/// assert_eq!(h.diameter(), 6);
/// // Distance equals Hamming distance:
/// assert_eq!(h.hops(NodeId(0b000000), NodeId(0b101101)), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypercube {
    dims: u32,
}

impl Hypercube {
    /// Creates a hypercube of the given dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if `dims > 20` (over a million nodes — certainly a bug).
    pub fn new(dims: u32) -> Self {
        assert!(dims <= 20, "hypercube dimension {dims} is unreasonable");
        Hypercube { dims }
    }

    /// The smallest hypercube holding `p` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn for_nodes(p: usize) -> Self {
        assert!(p > 0, "node count must be positive");
        let dims = (p.max(1) as u64).next_power_of_two().trailing_zeros();
        Hypercube::new(dims)
    }

    /// Dimensionality.
    pub fn dims(&self) -> u32 {
        self.dims
    }

    fn link(&self, from: NodeId, dim: u32) -> LinkId {
        LinkId(from.0 * self.dims as usize + dim as usize)
    }

    /// Endpoints of a link id, for validation.
    pub fn endpoints(&self, l: LinkId) -> (NodeId, NodeId) {
        let from = NodeId(l.0 / self.dims as usize);
        let dim = (l.0 % self.dims as usize) as u32;
        (from, NodeId(from.0 ^ (1 << dim)))
    }
}

impl Topology for Hypercube {
    fn nodes(&self) -> usize {
        1 << self.dims
    }

    fn links(&self) -> usize {
        self.nodes() * self.dims as usize
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        assert!(
            src.0 < self.nodes() && dst.0 < self.nodes(),
            "node out of range"
        );
        out.clear();
        let mut at = src;
        // E-cube: correct differing bits from lowest to highest.
        for dim in 0..self.dims {
            if (at.0 ^ dst.0) & (1 << dim) != 0 {
                out.push(self.link(at, dim));
                at = NodeId(at.0 ^ (1 << dim));
            }
        }
        debug_assert_eq!(at, dst);
    }

    fn describe(&self) -> String {
        format!("{}-cube ({} nodes)", self.dims, self.nodes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_route_connected;

    #[test]
    fn distance_is_hamming() {
        let h = Hypercube::new(5);
        for s in 0..32usize {
            for d in 0..32usize {
                assert_eq!(
                    h.hops(NodeId(s), NodeId(d)),
                    (s ^ d).count_ones() as usize,
                    "({s},{d})"
                );
            }
        }
    }

    #[test]
    fn routes_are_connected() {
        let h = Hypercube::new(4);
        for s in 0..16 {
            for d in 0..16 {
                let r = h.route(NodeId(s), NodeId(d));
                assert_route_connected(&r, NodeId(s), NodeId(d), |l| h.endpoints(l));
            }
        }
    }

    #[test]
    fn ecube_fixes_low_bits_first() {
        let h = Hypercube::new(4);
        let r = h.route(NodeId(0), NodeId(0b1011));
        let dims: Vec<usize> = r.links().iter().map(|l| l.0 % 4).collect();
        assert_eq!(dims, vec![0, 1, 3]);
    }

    #[test]
    fn for_nodes_rounds_up() {
        assert_eq!(Hypercube::for_nodes(64).dims(), 6);
        assert_eq!(Hypercube::for_nodes(65).dims(), 7);
        assert_eq!(Hypercube::for_nodes(1).dims(), 0);
        assert_eq!(Hypercube::for_nodes(1).nodes(), 1);
    }

    #[test]
    fn diameter_and_degree() {
        let h = Hypercube::new(6);
        assert_eq!(h.diameter(), 6);
        assert_eq!(h.links(), 64 * 6);
        // Mean distance of a d-cube is d/2.
        assert!((h.mean_distance() - 3.0 * 64.0 / 63.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unreasonable")]
    fn huge_cube_panics() {
        Hypercube::new(30);
    }
}
