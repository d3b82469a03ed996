//! 3-D bidirectional torus — the Cray T3D interconnect.
//!
//! The T3D arranges its processing elements in a 3-D torus with
//! dimension-ordered (X, then Y, then Z) wormhole routing, taking the
//! shorter wrap direction in each dimension. Each node has up to six
//! outgoing unidirectional links (±X, ±Y, ±Z).

use crate::{LinkId, NodeId, Topology};

/// Directions out of a torus node, in routing order.
const DIRS: usize = 6; // +x, -x, +y, -y, +z, -z

/// A 3-D torus of `dx × dy × dz` nodes.
///
/// # Examples
///
/// ```
/// use topo::{Torus3d, NodeId, Topology};
///
/// let t = Torus3d::new(4, 4, 4); // the 64-node T3D of the paper
/// assert_eq!(t.nodes(), 64);
/// // The far corner (3,3,3) is one wraparound hop away per dimension:
/// assert_eq!(t.hops(NodeId(0), NodeId(63)), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Torus3d {
    dx: usize,
    dy: usize,
    dz: usize,
}

impl Torus3d {
    /// Creates a torus with the given dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(dx: usize, dy: usize, dz: usize) -> Self {
        assert!(dx > 0 && dy > 0 && dz > 0, "dimensions must be positive");
        Torus3d { dx, dy, dz }
    }

    /// Picks a near-cubic shape for `p` nodes, the way T3D partitions were
    /// allocated (e.g. 64 → 4×4×4, 128 → 8×4×4, 32 → 4×4×2).
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn for_nodes(p: usize) -> Self {
        assert!(p > 0, "node count must be positive");
        let mut best: Option<(usize, usize, usize)> = None;
        for a in 1..=p {
            if !p.is_multiple_of(a) {
                continue;
            }
            let rest = p / a;
            for b in 1..=rest {
                if !rest.is_multiple_of(b) {
                    continue;
                }
                let c = rest / b;
                let cand = (a.max(b).max(c), a + b + c, a);
                let better = match best {
                    None => true,
                    Some((bx, by, bz)) => cand < (bx.max(by).max(bz), bx + by + bz, bx),
                };
                if better {
                    best = Some((a, b, c));
                }
            }
        }
        let (a, b, c) = best.expect("factorization exists");
        // Largest dimension first, matching T3D cabinet layouts.
        let mut dims = [a, b, c];
        dims.sort_unstable_by(|x, y| y.cmp(x));
        Torus3d::new(dims[0], dims[1], dims[2])
    }

    /// Dimension sizes `(dx, dy, dz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.dx, self.dy, self.dz)
    }

    fn coords(&self, n: NodeId) -> (usize, usize, usize) {
        let i = n.0;
        (
            i % self.dx,
            (i / self.dx) % self.dy,
            i / (self.dx * self.dy),
        )
    }

    fn node_at(&self, x: usize, y: usize, z: usize) -> NodeId {
        NodeId(x + self.dx * (y + self.dy * z))
    }

    fn link(&self, from: NodeId, dir: usize) -> LinkId {
        LinkId(from.0 * DIRS + dir)
    }

    /// Endpoints of a link id — inverse of the id scheme, for validation.
    pub fn endpoints(&self, l: LinkId) -> (NodeId, NodeId) {
        let from = NodeId(l.0 / DIRS);
        let dir = l.0 % DIRS;
        let (x, y, z) = self.coords(from);
        let to = match dir {
            0 => self.node_at((x + 1) % self.dx, y, z),
            1 => self.node_at((x + self.dx - 1) % self.dx, y, z),
            2 => self.node_at(x, (y + 1) % self.dy, z),
            3 => self.node_at(x, (y + self.dy - 1) % self.dy, z),
            4 => self.node_at(x, y, (z + 1) % self.dz),
            _ => self.node_at(x, y, (z + self.dz - 1) % self.dz),
        };
        (from, to)
    }

    /// Routes one dimension: appends links walking `from` along `dim`
    /// toward coordinate `target`, returning the arrival node.
    fn route_dim(
        &self,
        route: &mut Vec<LinkId>,
        mut at: NodeId,
        dim: usize,
        target: usize,
    ) -> NodeId {
        let size = [self.dx, self.dy, self.dz][dim];
        let coord = |n: NodeId, t: &Self| -> usize {
            let (x, y, z) = t.coords(n);
            [x, y, z][dim]
        };
        let cur = coord(at, self);
        if cur == target {
            return at;
        }
        let fwd = (target + size - cur) % size;
        let bwd = (cur + size - target) % size;
        // Shorter wrap direction; ties go positive (deterministic).
        let (steps, dir) = if fwd <= bwd {
            (fwd, dim * 2)
        } else {
            (bwd, dim * 2 + 1)
        };
        for _ in 0..steps {
            let l = self.link(at, dir);
            route.push(l);
            at = self.endpoints(l).1;
        }
        at
    }
}

impl Topology for Torus3d {
    fn nodes(&self) -> usize {
        self.dx * self.dy * self.dz
    }

    fn links(&self) -> usize {
        // Dense id space with one slot per (node, direction); slots along
        // size-1 dimensions are never routed over.
        self.nodes() * DIRS
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        assert!(
            src.0 < self.nodes() && dst.0 < self.nodes(),
            "node out of range"
        );
        out.clear();
        let (tx, ty, tz) = self.coords(dst);
        let mut at = src;
        at = self.route_dim(out, at, 0, tx);
        at = self.route_dim(out, at, 1, ty);
        let end = self.route_dim(out, at, 2, tz);
        debug_assert_eq!(end, dst);
    }

    fn describe(&self) -> String {
        format!("3-D torus {}x{}x{}", self.dx, self.dy, self.dz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_route_connected;

    #[test]
    fn shapes_for_common_sizes() {
        assert_eq!(Torus3d::for_nodes(64).dims(), (4, 4, 4));
        assert_eq!(Torus3d::for_nodes(8).dims(), (2, 2, 2));
        assert_eq!(Torus3d::for_nodes(2).dims(), (2, 1, 1));
        assert_eq!(Torus3d::for_nodes(1).dims(), (1, 1, 1));
        let d128 = Torus3d::for_nodes(128).dims();
        assert_eq!(d128.0 * d128.1 * d128.2, 128);
        assert!(d128.0 <= 8, "near-cubic: {d128:?}");
    }

    #[test]
    fn wraparound_shortens_routes() {
        let t = Torus3d::new(8, 1, 1);
        // 0 -> 7 is one hop backwards around the ring, not 7 forward.
        assert_eq!(t.hops(NodeId(0), NodeId(7)), 1);
        assert_eq!(t.hops(NodeId(0), NodeId(4)), 4); // tie: half way
        assert_eq!(t.hops(NodeId(0), NodeId(3)), 3);
    }

    #[test]
    fn routes_are_connected() {
        let t = Torus3d::new(4, 3, 2);
        for s in 0..t.nodes() {
            for d in 0..t.nodes() {
                let r = t.route(NodeId(s), NodeId(d));
                assert_route_connected(&r, NodeId(s), NodeId(d), |l| t.endpoints(l));
            }
        }
    }

    #[test]
    fn route_is_dimension_ordered() {
        let t = Torus3d::new(4, 4, 4);
        let r = t.route(NodeId(0), NodeId(t.node_at(1, 1, 1).0));
        // Each hop's direction dimension must be non-decreasing.
        let dims: Vec<usize> = r.links().iter().map(|l| (l.0 % DIRS) / 2).collect();
        let mut sorted = dims.clone();
        sorted.sort_unstable();
        assert_eq!(dims, sorted);
    }

    #[test]
    fn diameter_of_cube() {
        let t = Torus3d::new(4, 4, 4);
        assert_eq!(t.diameter(), 6); // 2 per dimension with wraparound
        assert!(t.mean_distance() > 0.0);
    }

    #[test]
    fn self_route_is_local() {
        let t = Torus3d::new(2, 2, 2);
        assert!(t.route(NodeId(3), NodeId(3)).is_local());
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_panics() {
        Torus3d::new(2, 2, 2).route(NodeId(0), NodeId(8));
    }

    #[test]
    fn describes_itself() {
        assert_eq!(Torus3d::new(4, 4, 2).describe(), "3-D torus 4x4x2");
    }
}
