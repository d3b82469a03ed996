//! The two workloads, their shared point vocabulary (3 machines × 7
//! collectives), the seeded op order, and the op each one times.

use desim::SplitMix64;
use mpisim::exec::ExecOutcome;
use mpisim::{Communicator, Machine, OpClass, Rank, RunOptions, Schedule, SimMpiError};
use obs::{Json, RunRecord};

/// Partition size of every point: the paper grid's p = 64 column.
pub const NODES: usize = 64;

/// Message length of the 21 suite points (barriers send none).
pub const SUITE_BYTES: u32 = 4096;

/// Short keys of the machines, in vocabulary order.
pub const MACHINE_KEYS: [&str; 3] = ["sp2", "paragon", "t3d"];

/// The machines, in the order of [`MACHINE_KEYS`].
pub fn machines() -> Vec<Machine> {
    vec![Machine::sp2(), Machine::paragon(), Machine::t3d()]
}

/// The seven collectives, in vocabulary order.
pub const OPS: [OpClass; 7] = [
    OpClass::Bcast,
    OpClass::Alltoall,
    OpClass::Scatter,
    OpClass::Gather,
    OpClass::Scan,
    OpClass::Reduce,
    OpClass::Barrier,
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One default `run_with` of a prebuilt one-segment schedule on the
    /// 21 suite points: what `Communicator::run(&schedule)` does, the
    /// path of the `ablations` bin, the simulator microbench and the
    /// `bcast()`/`alltoall()` convenience calls.
    Rerun,
    /// One single-shot tool call from nothing on the 21 suite points:
    /// fresh communicator and schedule, observed run, critical path,
    /// canonical run record.
    ColdTool,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Rerun, Workload::ColdTool];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Rerun => "rerun",
            Workload::ColdTool => "cold-tool",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's points, in canonical order: the same 21 suite
    /// points for both workloads.
    pub fn points(self) -> Vec<Point> {
        (0..MACHINE_KEYS.len())
            .flat_map(|machine| {
                OPS.into_iter().map(move |op| Point {
                    machine,
                    op,
                    bytes: if op == OpClass::Barrier { 0 } else { SUITE_BYTES },
                })
            })
            .collect()
    }

    /// The untimed ops set-up runs after construction, by point index:
    /// enough executions that set-up reads in hundreds of milliseconds,
    /// not one constructor call, so `setup_s` is steady.
    pub fn warmup_ops(self) -> Vec<usize> {
        let passes = match self {
            Workload::Rerun => 10,
            Workload::ColdTool => 4,
        };
        let n = self.points().len();
        (0..passes).flat_map(|_| 0..n).collect()
    }
}

/// One point: a collective on a machine at message length `bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// Index into [`MACHINE_KEYS`] and [`machines`].
    pub machine: usize,
    pub op: OpClass,
    pub bytes: u32,
}

impl Point {
    /// Stable identifier, e.g. `t3d/alltoall/4096`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            MACHINE_KEYS[self.machine],
            self.op.key(),
            self.bytes
        )
    }
}

/// The op order of pass `pass` under `seed`: a seeded permutation of
/// `0..n`. Every pass holds every point once, so a run's op mix does
/// not depend on the seed.
pub fn pass_order(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ (pass as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// What the benchmark builds before the first timed op.
pub struct Ready {
    pub workload: Workload,
    pub points: Vec<Point>,
    /// The machines of the vocabulary.
    pub machines: Vec<Machine>,
    /// One p = 64 communicator per machine (unused by `cold-tool`,
    /// which builds its own on every op).
    pub comms: Vec<Communicator>,
    /// One prebuilt schedule per point (`rerun` only).
    pub schedules: Vec<Schedule>,
}

impl Ready {
    /// Builds the workload's communicators and, for `rerun`, its
    /// schedules.
    ///
    /// # Errors
    ///
    /// Propagates communicator and schedule construction failures.
    pub fn build(workload: Workload) -> Result<Ready, SimMpiError> {
        let machines = machines();
        let points = workload.points();
        let comms = if workload == Workload::ColdTool {
            Vec::new()
        } else {
            machines
                .iter()
                .map(|m| m.communicator(NODES))
                .collect::<Result<_, _>>()?
        };
        let schedules = if workload == Workload::Rerun {
            points
                .iter()
                .map(|pt| comms[pt.machine].schedule(pt.op, Rank(0), pt.bytes))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        Ok(Ready {
            workload,
            points,
            machines,
            comms,
            schedules,
        })
    }

    /// Runs the op of point `i`: the only work the op latency covers.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn run_op(&self, i: usize) -> Result<Output, SimMpiError> {
        let pt = self.points[i];
        match self.workload {
            Workload::Rerun => self.comms[pt.machine]
                .run_with(&[&self.schedules[i]], RunOptions::default())
                .map(Output::Exec),
            Workload::ColdTool => cold_tool(&self.machines[pt.machine], pt).map(Output::Record),
        }
    }
}

/// Options of the observed run a single-shot tool makes.
pub fn tool_options() -> RunOptions {
    RunOptions {
        record_trace: true,
        provenance: true,
        event_log: true,
        ..RunOptions::default()
    }
}

/// One single-shot tool call from nothing.
fn cold_tool(machine: &Machine, pt: Point) -> Result<RunRecord, SimMpiError> {
    let comm = machine.communicator(NODES)?;
    let schedule = comm.schedule(pt.op, Rank(0), pt.bytes)?;
    let (out, observed) = comm.run_observed(&[&schedule], tool_options())?;
    let cp = mpisim::critpath::analyze(&out, &observed);
    Ok(
        mpisim::record::run_record(machine.name(), &out, &observed, Some(&cp), None)
            .canonicalized(),
    )
}

/// An op's result. Only its simulated content is compared.
pub enum Output {
    Exec(ExecOutcome),
    Record(RunRecord),
}

impl Output {
    /// A short human-readable summary of the simulated output.
    pub fn summary(&self) -> String {
        match self {
            Output::Exec(out) => format!(
                "completed_ns={} messages={} bytes={}",
                out.completed().as_nanos(),
                out.messages,
                out.bytes
            ),
            Output::Record(rec) => format!(
                "elapsed_ns={} transfers={} blame_ns={}",
                rec.elapsed_ns,
                rec.transfers.len(),
                rec.blame_ns.values().sum::<u64>()
            ),
        }
    }

    /// The digest of the simulated output: every finish instant plus
    /// messages and bytes of a run, or the canonical record's JSON tree.
    ///
    /// Host-work counts are left out on purpose: `ExecOutcome::events`
    /// and the record's fired-event stream change when the same
    /// simulation is done with less engine work, and such a change must
    /// still pass.
    pub fn digest(self) -> u64 {
        let mut d = Digest::default();
        match self {
            Output::Exec(out) => {
                for seg in &out.finish {
                    d.word(seg.len() as u64);
                    for t in seg {
                        d.word(t.as_nanos());
                    }
                }
                d.word(out.messages);
                d.word(out.bytes);
            }
            Output::Record(mut rec) => {
                rec.events.clear();
                d.json(&rec.to_json());
            }
        }
        d.0
    }
}

/// FNV-1a over 64-bit words: the digest the reference file stores.
/// Each step is a bijection of the state, so any single changed word
/// changes the digest.
struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(b));
        }
    }

    /// Feeds a JSON tree: a tag per node, then its content.
    fn json(&mut self, j: &Json) {
        match j {
            Json::Null => self.word(0),
            Json::Bool(b) => {
                self.word(1);
                self.word(u64::from(*b));
            }
            Json::Int(i) => {
                self.word(2);
                self.word(*i as u64);
            }
            Json::UInt(u) => {
                self.word(3);
                self.word(*u);
            }
            Json::Float(f) => {
                self.word(4);
                self.word(f.to_bits());
            }
            Json::Str(s) => {
                self.word(5);
                self.text(s);
            }
            Json::Array(items) => {
                self.word(6);
                self.word(items.len() as u64);
                items.iter().for_each(|item| self.json(item));
            }
            Json::Object(members) => {
                self.word(7);
                self.word(members.len() as u64);
                for (k, v) in members {
                    self.text(k);
                    self.json(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_sets() {
        assert_eq!(Workload::Rerun.points().len(), 21);
        assert_eq!(Workload::Rerun.points(), Workload::ColdTool.points());
        for w in Workload::ALL {
            let mut labels: Vec<String> = w.points().iter().map(Point::label).collect();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), w.points().len(), "{} labels unique", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn seeded_order_is_a_permutation_of_the_same_points() {
        for n in [1, 21] {
            let mut seen = Vec::new();
            for seed in [0, 1, 2, 0xDEAD_BEEF] {
                for pass in 0..4 {
                    let order = pass_order(n, seed, pass);
                    let mut sorted = order.clone();
                    sorted.sort_unstable();
                    assert_eq!(sorted, (0..n).collect::<Vec<_>>());
                    assert_eq!(order, pass_order(n, seed, pass), "same seed, same order");
                    seen.push(order);
                }
            }
            if n > 1 {
                seen.sort();
                seen.dedup();
                assert!(seen.len() > 1, "the seed changes the order");
            }
        }
    }
}
