//! K-ary fat tree with up/down routing.
//!
//! The SP2's High-Performance Switch is, more precisely than an Omega
//! network, a *bidirectional* multistage network: packets climb to the
//! nearest common ancestor switch and descend. We model a k-ary fat
//! tree: leaves are nodes, each internal level groups `k` subtrees, and
//! every tree edge is a pair of opposing links whose capacity is
//! constant per level (the "fattening" is modeled as one aggregated link
//! per edge, matching how the wire model charges serialization).
//!
//! Used as an alternative SP2 interconnect in the robustness ablation:
//! if conclusions survive swapping Omega ↔ fat tree, they do not hinge
//! on the indirect-network abstraction.

use crate::{LinkId, NodeId, Topology};

/// A k-ary fat tree over `p` leaves (padded to a power of `k`).
///
/// Link ids: for each level `l ∈ 0..levels` and each subtree position,
/// an *up* link and a *down* link. Up links come first.
///
/// # Examples
///
/// ```
/// use topo::{FatTree, NodeId, Topology};
///
/// let ft = FatTree::new(64, 4);
/// assert_eq!(ft.levels(), 3);
/// // Adjacent leaves share the level-0 switch: 2 hops (up + down).
/// assert_eq!(ft.hops(NodeId(0), NodeId(1)), 2);
/// // Opposite halves meet at the root: 6 hops.
/// assert_eq!(ft.hops(NodeId(0), NodeId(63)), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTree {
    nodes: usize,
    padded: usize,
    k: usize,
    levels: usize,
}

impl FatTree {
    /// Creates a fat tree for `nodes` leaves with radix-`k` switches.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `k < 2`.
    pub fn new(nodes: usize, k: usize) -> Self {
        assert!(nodes > 0, "node count must be positive");
        assert!(k >= 2, "switch radix must be at least 2");
        let mut padded = k;
        let mut levels = 1;
        while padded < nodes {
            padded *= k;
            levels += 1;
        }
        FatTree {
            nodes,
            padded,
            k,
            levels,
        }
    }

    /// Number of switch levels (tree height).
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Switch radix.
    pub fn radix(&self) -> usize {
        self.k
    }

    /// The level of the lowest common ancestor switch of two leaves
    /// (0 = leaf switch). Exposed for tests.
    pub fn lca_level(&self, a: NodeId, b: NodeId) -> usize {
        let mut level = 0;
        let (mut x, mut y) = (a.0, b.0);
        loop {
            x /= self.k;
            y /= self.k;
            if x == y {
                return level;
            }
            level += 1;
        }
    }

    /// Up link out of the level-`level` switch position containing leaf
    /// `n` (child position `n / k^level`) toward level `level + 1`.
    fn up_link(&self, n: usize, level: usize) -> LinkId {
        let pos = n / self.k.pow(level as u32);
        LinkId(self.level_offset(level) + pos)
    }

    fn down_link(&self, n: usize, level: usize) -> LinkId {
        let pos = n / self.k.pow(level as u32);
        LinkId(self.level_offset(level) + self.level_width(level) + pos)
    }

    /// Number of up links at `level` (== child positions).
    fn level_width(&self, level: usize) -> usize {
        self.padded / self.k.pow(level as u32)
    }

    /// Dense offset of `level`'s link block (up then down per level).
    fn level_offset(&self, level: usize) -> usize {
        let mut off = 0;
        for l in 0..level {
            off += 2 * self.level_width(l);
        }
        off
    }

    /// The level a link id belongs to.
    fn link_level(&self, l: LinkId) -> usize {
        let mut level = 0;
        let mut off = 0;
        loop {
            let width = 2 * self.level_width(level);
            if l.0 < off + width {
                return level;
            }
            off += width;
            level += 1;
        }
    }
}

impl Topology for FatTree {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn links(&self) -> usize {
        (0..self.levels).map(|l| 2 * self.level_width(l)).sum()
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        assert!(
            src.0 < self.nodes && dst.0 < self.nodes,
            "node out of range"
        );
        out.clear();
        if src == dst {
            return;
        }
        let turn = self.lca_level(src, dst);
        // Climb from the source leaf to the LCA…
        for level in 0..=turn {
            out.push(self.up_link(src.0, level));
        }
        // …then descend to the destination leaf.
        for level in (0..=turn).rev() {
            out.push(self.down_link(dst.0, level));
        }
    }

    fn describe(&self) -> String {
        format!(
            "fat tree, {} leaves, {}-ary, {} levels",
            self.nodes, self.k, self.levels
        )
    }

    /// The "fattening": a level-`l` edge aggregates the bandwidth of the
    /// `k^l` base links below it, keeping full bisection bandwidth.
    fn link_capacity(&self, l: LinkId) -> f64 {
        self.k.pow(self.link_level(l) as u32) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_counts_follow_lca() {
        let ft = FatTree::new(64, 4);
        // Same level-0 switch.
        assert_eq!(ft.hops(NodeId(0), NodeId(3)), 2);
        // Same level-1 group.
        assert_eq!(ft.hops(NodeId(0), NodeId(15)), 4);
        // Root crossing.
        assert_eq!(ft.hops(NodeId(0), NodeId(16)), 6);
        assert_eq!(ft.diameter(), 6);
    }

    #[test]
    fn link_ids_dense_and_distinct() {
        let ft = FatTree::new(16, 4);
        // 2 levels: level 0 has 16 up + 16 down, level 1 has 4 + 4.
        assert_eq!(ft.links(), 40);
        let mut seen = std::collections::HashSet::new();
        for s in 0..16 {
            for d in 0..16 {
                for l in ft.route(NodeId(s), NodeId(d)).links() {
                    assert!(l.0 < ft.links(), "dense: {l}");
                    seen.insert(*l);
                }
            }
        }
        assert!(seen.len() > 30, "most links exercised: {}", seen.len());
    }

    #[test]
    fn up_down_structure() {
        let ft = FatTree::new(16, 4);
        let r = ft.route(NodeId(0), NodeId(15));
        // 2 up then 2 down; up links precede down links within a level's
        // id block.
        assert_eq!(r.hops(), 4);
        let ids: Vec<usize> = r.links().iter().map(|l| l.0).collect();
        assert!(ids[0] < 16, "level-0 up block");
        assert!(ids[1] >= 32 && ids[1] < 36, "level-1 up block");
        assert!(ids[2] >= 36 && ids[2] < 40, "level-1 down block");
        assert!((16..32).contains(&ids[3]), "level-0 down block");
    }

    #[test]
    fn shared_uplinks_model_contention() {
        // Leaves 0 and 1 share their level-0 up link: simultaneous
        // traffic out of the same leaf switch serializes there.
        let ft = FatTree::new(16, 4);
        let a = ft.route(NodeId(0), NodeId(8));
        let b = ft.route(NodeId(1), NodeId(9));
        assert_eq!(a.links()[1], b.links()[1], "shared level-1 up link");
    }

    #[test]
    fn lca_levels() {
        let ft = FatTree::new(64, 4);
        assert_eq!(ft.lca_level(NodeId(0), NodeId(1)), 0);
        assert_eq!(ft.lca_level(NodeId(0), NodeId(5)), 1);
        assert_eq!(ft.lca_level(NodeId(0), NodeId(63)), 2);
    }

    #[test]
    fn non_power_sizes_pad() {
        let ft = FatTree::new(48, 4);
        assert_eq!(ft.nodes(), 48);
        assert_eq!(ft.levels(), 3);
        for s in [0usize, 13, 47] {
            for d in [0usize, 13, 47] {
                let r = ft.route(NodeId(s), NodeId(d));
                if s == d {
                    assert!(r.is_local());
                } else {
                    assert!(r.hops() >= 2 && r.hops() <= 6);
                }
            }
        }
    }

    #[test]
    fn capacity_fattens_with_level() {
        let ft = FatTree::new(64, 4);
        let r = ft.route(NodeId(0), NodeId(63));
        let caps: Vec<f64> = r.links().iter().map(|&l| ft.link_capacity(l)).collect();
        assert_eq!(caps, vec![1.0, 4.0, 16.0, 16.0, 4.0, 1.0]);
        // Bisection: the root level carries padded/k edges of capacity
        // k^(levels-1) each = full leaf bandwidth.
        let root_up = ft.route(NodeId(0), NodeId(63)).links()[2];
        assert_eq!(ft.link_capacity(root_up) * (ft.level_width(2) as f64), 64.0);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_panics() {
        FatTree::new(8, 2).route(NodeId(0), NodeId(8));
    }
}
