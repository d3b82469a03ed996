//! Paper-reproduction validation: the shape criteria of DESIGN.md §4.
//!
//! Absolute numbers are checked against the paper's headlines with
//! generous tolerances (our substrate is a simulator, not the authors'
//! testbed); orderings, growth families, and crossovers are checked
//! strictly.

use harness::{measure, Protocol, SweepBuilder};
use mpi_collectives_eval::prelude::*;
use mpisim::RunOptions;
use perfmodel::{fit_surface, paper, Growth};

fn quick() -> Protocol {
    Protocol::quick()
}

fn t_us(machine: &Machine, op: OpClass, m: u32, p: usize) -> f64 {
    let comm = machine.communicator(p).expect("size");
    measure(&comm, op, m, &quick()).expect("measure").time_us
}

#[test]
fn t3d_hardwired_barrier_is_3us_and_30x_faster() {
    let t3d = t_us(&Machine::t3d(), OpClass::Barrier, 0, 64);
    let sp2 = t_us(&Machine::sp2(), OpClass::Barrier, 0, 64);
    let paragon = t_us(&Machine::paragon(), OpClass::Barrier, 0, 64);
    assert!((2.0..5.0).contains(&t3d), "T3D barrier {t3d} us");
    assert!(sp2 / t3d >= 30.0, "SP2/T3D = {}", sp2 / t3d);
    assert!(paragon / t3d >= 30.0, "Paragon/T3D = {}", paragon / t3d);
}

#[test]
fn t3d_64_node_startup_latencies_within_30_percent() {
    let machine = Machine::t3d();
    for (op, published) in paper::T3D_64_NODE_LATENCIES_US {
        let sim = t_us(&machine, op, 4, 64);
        let ratio = sim / published;
        assert!(
            (0.7..1.3).contains(&ratio),
            "{op}: {sim:.0} vs {published} ({ratio:.2})"
        );
    }
}

#[test]
fn sp2_64kb_total_exchange_near_317ms() {
    let sim_ms = t_us(&Machine::sp2(), OpClass::Alltoall, 65_536, 64) / 1000.0;
    let ratio = sim_ms / paper::SP2_ALLTOALL_64KB_64N_MS;
    assert!((0.75..1.25).contains(&ratio), "{sim_ms:.0} ms ({ratio:.2})");
}

#[test]
fn aggregated_bandwidths_match_section8() {
    let data = SweepBuilder::new()
        .ops([OpClass::Alltoall])
        .message_sizes([4, 1_024, 16_384, 65_536])
        .node_counts([2, 8, 32, 64])
        .protocol(quick())
        .run()
        .expect("sweep");
    for (id, published_gb) in paper::ALLTOALL_64_BANDWIDTH_GB_S {
        let machine = Machine::from_id(id);
        let series =
            perfmodel::bandwidth_series(&data, machine.name(), OpClass::Alltoall).expect("fit");
        let sim_gb = series
            .iter()
            .find(|b| b.nodes == 64)
            .expect("64-node point")
            .mb_s
            / 1000.0;
        let ratio = sim_gb / published_gb;
        assert!(
            (0.8..1.25).contains(&ratio),
            "{}: {sim_gb:.3} vs {published_gb} GB/s",
            machine.name()
        );
    }
    // And the published ranking: T3D > Paragon > SP2.
    let get = |name: &str| {
        perfmodel::bandwidth_series(&data, name, OpClass::Alltoall)
            .expect("fit")
            .iter()
            .find(|b| b.nodes == 64)
            .expect("point")
            .mb_s
    };
    assert!(get("Cray T3D") > get("Intel Paragon"));
    assert!(get("Intel Paragon") > get("IBM SP2"));
}

#[test]
fn startup_growth_families_fit_correctly() {
    // O(log p) for barrier/bcast/reduce/scan; O(p) for scatter/gather/
    // alltoall — on every machine (§8).
    let data = SweepBuilder::new()
        .message_sizes([4, 1_024, 65_536])
        .node_counts([2, 4, 8, 16, 32, 64])
        .protocol(quick())
        .run()
        .expect("sweep");
    for machine in Machine::all() {
        for op in OpClass::COLLECTIVES {
            let f = fit_surface(&data, machine.name(), op).expect("fit");
            let expect = if op.startup_is_logarithmic() {
                Growth::Logarithmic
            } else {
                Growth::Linear
            };
            assert_eq!(
                f.startup.growth,
                expect,
                "{}/{op}: fitted {}",
                machine.name(),
                f.startup
            );
        }
    }
}

#[test]
fn sp2_beats_paragon_short_messages_loses_long() {
    // §5: short messages — SP2 wins barrier, total exchange, scatter,
    // gather; long messages — Paragon wins almost all except reduce.
    let sp2 = Machine::sp2();
    let paragon = Machine::paragon();
    for op in [OpClass::Alltoall, OpClass::Scatter, OpClass::Gather] {
        let s = t_us(&sp2, op, 16, 64);
        let g = t_us(&paragon, op, 16, 64);
        assert!(s < g, "{op} short: SP2 {s:.0} vs Paragon {g:.0}");
    }
    let sb = t_us(&sp2, OpClass::Barrier, 0, 64);
    let gb = t_us(&paragon, OpClass::Barrier, 0, 64);
    assert!(sb < gb, "barrier: SP2 {sb:.0} vs Paragon {gb:.0}");

    for op in [OpClass::Bcast, OpClass::Alltoall, OpClass::Scatter] {
        let s = t_us(&sp2, op, 65_536, 64);
        let g = t_us(&paragon, op, 65_536, 64);
        assert!(g < s, "{op} long: Paragon {g:.0} vs SP2 {s:.0}");
    }
    // Reduce is the long-message exception: the SP2 keeps it.
    let s = t_us(&sp2, OpClass::Reduce, 65_536, 64);
    let g = t_us(&paragon, OpClass::Reduce, 65_536, 64);
    assert!(s < g, "reduce long: SP2 {s:.0} vs Paragon {g:.0}");
}

#[test]
fn t3d_fastest_except_paragon_scan() {
    // §9: T3D does uniformly best except trailing the Paragon in scan on
    // 16 nodes or more.
    // Reduce is excluded at long lengths: "to reduce long messages
    // beyond 64 KBytes, the SP2 shows the lowest messaging time" (§5).
    for op in [OpClass::Bcast, OpClass::Alltoall, OpClass::Gather] {
        for m in [16u32, 65_536] {
            let t = t_us(&Machine::t3d(), op, m, 64);
            let s = t_us(&Machine::sp2(), op, m, 64);
            let g = t_us(&Machine::paragon(), op, m, 64);
            assert!(
                t <= s * 1.05 && t <= g * 1.05,
                "{op}@{m}: T3D {t:.0} vs SP2 {s:.0} / Paragon {g:.0}"
            );
        }
    }
    // Reduce: T3D fastest for short messages, SP2 for long (§5).
    let t = t_us(&Machine::t3d(), OpClass::Reduce, 16, 64);
    let s = t_us(&Machine::sp2(), OpClass::Reduce, 16, 64);
    assert!(t < s, "reduce short: T3D {t:.0} vs SP2 {s:.0}");
    let t = t_us(&Machine::t3d(), OpClass::Scan, 16, 64);
    let g = t_us(&Machine::paragon(), OpClass::Scan, 16, 64);
    assert!(
        g < t,
        "Paragon scan beats T3D at 64 nodes: {g:.0} vs {t:.0}"
    );
}

#[test]
fn total_exchange_demands_longest_time() {
    // Fig. 4: at p=32, m=1KB the total exchange towers over the rest.
    for machine in Machine::all() {
        let a2a = t_us(&machine, OpClass::Alltoall, 1_024, 32);
        for op in [
            OpClass::Bcast,
            OpClass::Scatter,
            OpClass::Gather,
            OpClass::Scan,
            OpClass::Reduce,
        ] {
            let other = t_us(&machine, op, 1_024, 32);
            assert!(
                a2a > other,
                "{}: alltoall {a2a:.0} vs {op} {other:.0}",
                machine.name()
            );
        }
    }
}

#[test]
fn completion_range_64kb_64_nodes() {
    // §1: all collectives with 64 KB over 64 nodes finish within
    // (5.12 ms, 675 ms); allow slack on both ends.
    let mut lo = f64::MAX;
    let mut hi = f64::MIN;
    for machine in Machine::all() {
        for op in [
            OpClass::Bcast,
            OpClass::Alltoall,
            OpClass::Scatter,
            OpClass::Gather,
            OpClass::Scan,
            OpClass::Reduce,
        ] {
            let t = t_us(&machine, op, 65_536, 64);
            lo = lo.min(t);
            hi = hi.max(t);
        }
    }
    assert!(lo / 1000.0 > 2.0, "fastest {lo:.0} us");
    assert!(hi / 1000.0 > 100.0, "slowest {hi:.0} us");
    assert!(hi / 1000.0 < 1_000.0, "slowest {hi:.0} us");
}

#[test]
fn paragon_alltoall_gather_startup_is_multiples_of_others() {
    // §7: at p=32 the Paragon's alltoall/gather latencies are about 4 to
    // 15 times the SP2/T3D counterparts.
    for op in [OpClass::Alltoall, OpClass::Gather] {
        let g = t_us(&Machine::paragon(), op, 4, 32);
        let s = t_us(&Machine::sp2(), op, 4, 32);
        let t = t_us(&Machine::t3d(), op, 4, 32);
        assert!(g > 2.0 * s, "{op}: Paragon {g:.0} vs SP2 {s:.0}");
        assert!(g > 2.0 * t, "{op}: Paragon {g:.0} vs T3D {t:.0}");
    }
}

#[test]
fn startup_latency_monotone_in_machine_size() {
    // T0(p) is "a monotonic increasing function of the machine size" (§4).
    for machine in Machine::all() {
        for op in OpClass::COLLECTIVES {
            let mut last = 0.0;
            for p in [2usize, 4, 8, 16, 32, 64] {
                let m = if op == OpClass::Barrier { 0 } else { 4 };
                let t = t_us(&machine, op, m, p);
                assert!(
                    t >= last * 0.98, // tiny tolerance for skew noise
                    "{}/{op}: T0({p}) = {t:.1} < T0(prev) = {last:.1}",
                    machine.name()
                );
                last = t;
            }
        }
    }
}

// Schedule::check stores its verdict in the schedule value. These pin
// that the stored verdict never outlives the steps it judged and never
// shows in the schedule's value.

fn sp2_bcast(p: usize) -> (Communicator, Schedule) {
    let comm = Machine::sp2().communicator(p).expect("size");
    let s = comm
        .schedule(OpClass::Bcast, Rank(0), 64)
        .expect("schedule");
    (comm, s)
}

#[test]
fn push_after_a_run_fails_the_next_run() {
    let (comm, mut s) = sp2_bcast(8);
    comm.run_with(&[&s], RunOptions::default())
        .expect("valid schedule runs");
    // A receive nobody sends: the schedule can no longer complete.
    s.push(
        Rank(1),
        Step::Recv {
            from: Rank(0),
            bytes: 64,
        },
    );
    let err = comm
        .run_with(&[&s], RunOptions::default())
        .expect_err("the stored verdict must not survive a push");
    assert!(matches!(err, SimMpiError::BadSchedule(_)), "{err:?}");
}

#[test]
fn deadlock_is_reported_the_same_on_consecutive_runs() {
    let comm = Machine::sp2().communicator(2).expect("size");
    let mut s = Schedule::new(OpClass::Alltoall, 2);
    s.push(
        Rank(0),
        Step::Recv {
            from: Rank(1),
            bytes: 8,
        },
    );
    s.push(
        Rank(1),
        Step::Recv {
            from: Rank(0),
            bytes: 8,
        },
    );
    let first = comm
        .run_with(&[&s], RunOptions::default())
        .expect_err("deadlock");
    let second = comm
        .run_with(&[&s], RunOptions::default())
        .expect_err("deadlock");
    assert!(
        matches!(
            first,
            SimMpiError::BadSchedule(collectives::ScheduleError::DeadlockCycle { .. })
        ),
        "{first:?}"
    );
    assert_eq!(first, second);
}

#[test]
fn checked_clone_equals_unchecked_copy() {
    let (_, s) = sp2_bcast(16);
    let unchecked = s.clone();
    s.check().expect("valid");
    let checked = s.clone();
    assert_eq!(checked, unchecked);
    assert_eq!(s, unchecked);
}

#[test]
fn check_does_not_change_debug_output() {
    let (_, s) = sp2_bcast(4);
    let before = (format!("{s:?}"), format!("{s:#?}"));
    s.check().expect("valid");
    assert_eq!((format!("{s:?}"), format!("{s:#?}")), before);
}
