//! 2-D mesh — the Intel Paragon interconnect.
//!
//! The Paragon XP/S connects nodes in a 2-D mesh with deterministic XY
//! (dimension-ordered) wormhole routing: a message first travels along X
//! to the destination column, then along Y. There is no wraparound, so
//! edge nodes have fewer links and the center of the mesh carries more
//! traffic — the source of the Paragon's contention behaviour at scale.

use crate::{LinkId, NodeId, Topology};

const DIRS: usize = 4; // +x, -x, +y, -y

/// A `cols × rows` 2-D mesh.
///
/// # Examples
///
/// ```
/// use topo::{Mesh2d, NodeId, Topology};
///
/// let m = Mesh2d::new(8, 8);
/// assert_eq!(m.nodes(), 64);
/// assert_eq!(m.diameter(), 14); // (8-1) + (8-1)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh2d {
    cols: usize,
    rows: usize,
}

impl Mesh2d {
    /// Creates a mesh with the given column and row counts.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "dimensions must be positive");
        Mesh2d { cols, rows }
    }

    /// Picks a near-square shape for `p` nodes, mirroring how Paragon
    /// partitions were allocated (e.g. 64 → 8×8, 32 → 8×4, 128 → 16×8).
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn for_nodes(p: usize) -> Self {
        assert!(p > 0, "node count must be positive");
        let mut best = (p, 1);
        for r in 1..=p {
            if !p.is_multiple_of(r) {
                continue;
            }
            let c = p / r;
            if c < r {
                break;
            }
            best = (c, r);
        }
        Mesh2d::new(best.0, best.1)
    }

    /// Mesh shape `(cols, rows)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    fn coords(&self, n: NodeId) -> (usize, usize) {
        (n.0 % self.cols, n.0 / self.cols)
    }

    fn node_at(&self, x: usize, y: usize) -> NodeId {
        NodeId(x + y * self.cols)
    }

    fn link(&self, from: NodeId, dir: usize) -> LinkId {
        LinkId(from.0 * DIRS + dir)
    }

    /// Endpoints of a link id, for validation.
    ///
    /// # Panics
    ///
    /// Panics if the id denotes a link off the edge of the mesh.
    pub fn endpoints(&self, l: LinkId) -> (NodeId, NodeId) {
        let from = NodeId(l.0 / DIRS);
        let dir = l.0 % DIRS;
        let (x, y) = self.coords(from);
        let to = match dir {
            0 => {
                assert!(x + 1 < self.cols, "+x link off mesh edge");
                self.node_at(x + 1, y)
            }
            1 => {
                assert!(x > 0, "-x link off mesh edge");
                self.node_at(x - 1, y)
            }
            2 => {
                assert!(y + 1 < self.rows, "+y link off mesh edge");
                self.node_at(x, y + 1)
            }
            _ => {
                assert!(y > 0, "-y link off mesh edge");
                self.node_at(x, y - 1)
            }
        };
        (from, to)
    }
}

impl Topology for Mesh2d {
    fn nodes(&self) -> usize {
        self.cols * self.rows
    }

    fn links(&self) -> usize {
        // Dense slot per (node, direction); edge-exiting slots are unused.
        self.nodes() * DIRS
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        assert!(
            src.0 < self.nodes() && dst.0 < self.nodes(),
            "node out of range"
        );
        out.clear();
        let (mut x, mut y) = self.coords(src);
        let (tx, ty) = self.coords(dst);
        let mut at = src;
        while x != tx {
            let dir = if tx > x { 0 } else { 1 };
            out.push(self.link(at, dir));
            x = if tx > x { x + 1 } else { x - 1 };
            at = self.node_at(x, y);
        }
        while y != ty {
            let dir = if ty > y { 2 } else { 3 };
            out.push(self.link(at, dir));
            y = if ty > y { y + 1 } else { y - 1 };
            at = self.node_at(x, y);
        }
        debug_assert_eq!(at, dst);
    }

    fn describe(&self) -> String {
        format!("2-D mesh {}x{}", self.cols, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_route_connected;

    #[test]
    fn shapes_for_common_sizes() {
        assert_eq!(Mesh2d::for_nodes(64).dims(), (8, 8));
        assert_eq!(Mesh2d::for_nodes(32).dims(), (8, 4));
        assert_eq!(Mesh2d::for_nodes(128).dims(), (16, 8));
        assert_eq!(Mesh2d::for_nodes(2).dims(), (2, 1));
        assert_eq!(Mesh2d::for_nodes(7).dims(), (7, 1));
    }

    #[test]
    fn xy_routing_goes_x_first() {
        let m = Mesh2d::new(4, 4);
        let r = m.route(NodeId(0), NodeId(15)); // (0,0) -> (3,3)
        let dims: Vec<usize> = r.links().iter().map(|l| (l.0 % DIRS) / 2).collect();
        assert_eq!(dims, vec![0, 0, 0, 1, 1, 1], "all X hops before Y hops");
    }

    #[test]
    fn manhattan_distance() {
        let m = Mesh2d::new(8, 8);
        assert_eq!(m.hops(NodeId(0), NodeId(7)), 7);
        assert_eq!(m.hops(NodeId(0), NodeId(56)), 7);
        assert_eq!(m.hops(NodeId(0), NodeId(63)), 14);
        assert_eq!(m.hops(NodeId(9), NodeId(9)), 0);
    }

    #[test]
    fn no_wraparound() {
        let m = Mesh2d::new(8, 1);
        assert_eq!(m.hops(NodeId(0), NodeId(7)), 7, "must walk the full row");
    }

    #[test]
    fn routes_are_connected() {
        let m = Mesh2d::new(5, 3);
        for s in 0..m.nodes() {
            for d in 0..m.nodes() {
                let r = m.route(NodeId(s), NodeId(d));
                assert_route_connected(&r, NodeId(s), NodeId(d), |l| m.endpoints(l));
            }
        }
    }

    #[test]
    fn center_links_are_shared() {
        // In a 1x5 row, the middle link is used by several crossing routes.
        let m = Mesh2d::new(5, 1);
        let middle: Vec<_> = m.route(NodeId(1), NodeId(3)).links().to_vec();
        let long: Vec<_> = m.route(NodeId(0), NodeId(4)).links().to_vec();
        assert!(middle.iter().all(|l| long.contains(l)));
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_panics() {
        Mesh2d::new(2, 2).route(NodeId(4), NodeId(0));
    }

    #[test]
    fn describes_itself() {
        assert_eq!(Mesh2d::new(16, 8).describe(), "2-D mesh 16x8");
    }
}
