//! Route oracle: every route of every topology the simulator builds.
//!
//! Routing decides which links a message contends for, so a routing
//! change that keeps route lengths but moves a hop to another link
//! changes simulated timings on contended points only, and can slip
//! past tests that look at hop counts. This test hashes the exact link
//! sequence of `route(src, dst)` for every ordered pair, for every
//! `TopologyKind` at every paper node count, plus an irregular `Graph`,
//! and pins one FNV-1a value per topology.
//!
//! A pinned value changes only in a change that means to reroute
//! messages and says why. The failure message prints the current table.

#![allow(clippy::unwrap_used)]

use harness::PAPER_NODE_COUNTS;
use netmodel::TopologyKind;
use topo::{Graph, NodeId, Topology};

/// FNV-1a 64 state.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Folds every ordered pair's route into `h`: the pair, the hop count,
/// then each link id.
fn fold_routes(h: &mut Fnv, t: &dyn Topology) {
    let n = t.nodes();
    h.word(n as u64);
    h.word(t.links() as u64);
    for s in 0..n {
        for d in 0..n {
            let route = t.route(NodeId(s), NodeId(d));
            h.word(s as u64);
            h.word(d as u64);
            h.word(route.hops() as u64);
            for l in &route {
                h.word(l.0 as u64);
            }
        }
    }
}

/// A 12-node ring with chords `i -> i + 5`: irregular enough that
/// breadth-first routing has ties to break.
fn chorded_ring() -> Graph {
    let n = 12;
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_bidi(NodeId(i), NodeId((i + 1) % n));
    }
    for i in 0..n {
        g.add_link(NodeId(i), NodeId((i + 5) % n));
    }
    g
}

fn current() -> Vec<(&'static str, String)> {
    let kinds: [(&str, TopologyKind); 6] = [
        ("torus3d", TopologyKind::Torus3d),
        ("mesh2d", TopologyKind::Mesh2d),
        ("omega4", TopologyKind::Omega { radix: 4 }),
        ("crossbar", TopologyKind::Crossbar),
        ("hypercube", TopologyKind::Hypercube),
        ("fattree4", TopologyKind::FatTree { radix: 4 }),
    ];
    let mut table: Vec<(&str, String)> = kinds
        .iter()
        .map(|&(name, kind)| {
            let mut h = Fnv::new();
            for p in PAPER_NODE_COUNTS {
                fold_routes(&mut h, kind.build(p).as_ref());
            }
            (name, format!("{:016x}", h.0))
        })
        .collect();
    let mut h = Fnv::new();
    fold_routes(&mut h, &chorded_ring());
    table.push(("graph12", format!("{:016x}", h.0)));
    table
}

/// Generated from the routing code before any of its routes could move.
const PINNED: [(&str, &str); 7] = [
    ("torus3d", "f05ee178499ad953"),
    ("mesh2d", "3a1aee1dc4cad2cb"),
    ("omega4", "c42b491899507cec"),
    ("crossbar", "3f3ec94ab28ebbfd"),
    ("hypercube", "d21bd59c0ace3d46"),
    ("fattree4", "e05793267fda6b49"),
    ("graph12", "521f70cde728d286"),
];

#[test]
fn every_route_matches_the_pinned_digest() {
    let now = current();
    let differing: Vec<&str> = now
        .iter()
        .zip(PINNED)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, _), _)| *name)
        .collect();
    let table: String = now
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", \"{h}\"),\n"))
        .collect();
    assert!(
        differing.is_empty(),
        "routes changed on {differing:?}; current table:\n{table}"
    );
}
