//! The traced pass: times each layer from outside by calling that
//! layer's public functions around the work one op of the workload
//! does, and reads the engine's exact work counts.
//!
//! Per point the pass builds the op's schedule, then times
//! `Schedule::check`, `NetState::with_config`, a plain `run_with`, an
//! observed run with trace + provenance + event log,
//! `critpath::analyze`, the canonical run record, and a profiled
//! observed run whose `EngineProfile` gives the event-loop time and
//! whose counters give the exact counts.
//! Passes repeat until `--seconds` have passed; each point reports the
//! median of its passes, and the exact counts must agree across passes.

use crate::host::Usage;
use crate::reference::Reference;
use crate::stats::{fit_line, median};
use crate::workload::{pass_order, tool_options, Ready, Workload, NODES};
use crate::{set_up, Metric, Tally};
use mpisim::{Communicator, Rank, RunOptions, SimMpiError};
use netmodel::NetState;
use std::hint::black_box;
use std::time::Instant;

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("collectives.build_us", "us"),
    ("collectives.check_us", "us"),
    ("netmodel.setup_us", "us"),
    ("mpisim.run_us", "us"),
    ("mpisim.residual_us", "us"),
    ("mpisim.fixed_us", "us"),
    ("mpisim.ns_per_event", "ns"),
    ("mpisim.fit_r2", "ratio"),
    ("desim.loop_ns_per_event", "ns"),
    ("desim.loop_share", "ratio"),
    ("desim.events", "count"),
    ("desim.queue_high_water", "count"),
    ("desim.alloc.typed", "count"),
    ("desim.alloc.dyn", "count"),
    ("desim.alloc.continuations", "count"),
    ("netmodel.fifo_updates", "count"),
    ("netmodel.fifo_commits", "count"),
    ("obs.observe_extra_us", "us"),
    ("obs.critpath_us", "us"),
    ("obs.record_us", "us"),
    ("proc.sys_share", "ratio"),
    ("proc.minflt_per_op", "count"),
    ("trace.overhead_share", "ratio"),
];

/// Exact engine and wire work counts of one point's run.
/// Host-independent: they repeat bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub queue_high_water: u64,
    pub typed: u64,
    pub dynamic: u64,
    pub continuations: u64,
    pub fifo_updates: u64,
    pub fifo_commits: u64,
}

/// Host nanoseconds per layer of one point.
#[derive(Debug, Clone, Copy, Default)]
struct Times {
    build: f64,
    check: f64,
    setup: f64,
    run: f64,
    observe: f64,
    critpath: f64,
    record: f64,
    profiled: f64,
    loop_ns: f64,
    loop_events: f64,
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Times every layer of one point: the one run its op makes, taken
/// apart into the public calls that make it up.
fn trace_point(ready: &Ready, i: usize) -> Result<(Times, Counts), SimMpiError> {
    let pt = ready.points[i];
    let machine = &ready.machines[pt.machine];
    let fresh: Communicator;
    let comm = if ready.workload == Workload::ColdTool {
        fresh = machine.communicator(NODES)?;
        &fresh
    } else {
        &ready.comms[pt.machine]
    };
    let mut t = Times::default();
    let mut c = Counts::default();

    let start = Instant::now();
    let sched = comm.schedule(pt.op, Rank(0), pt.bytes)?;
    t.build = ns_since(start);

    let start = Instant::now();
    sched.check()?;
    t.check = ns_since(start);

    let start = Instant::now();
    let net = NetState::with_config(machine.spec(), NODES, machine.wire_config());
    t.setup = ns_since(start);
    black_box(net);

    let start = Instant::now();
    let out = comm.run_with(&[&sched], RunOptions::default())?;
    t.run = ns_since(start);
    c.events = out.events;

    let start = Instant::now();
    let (oout, obs) = comm.run_observed(&[&sched], tool_options())?;
    t.observe = ns_since(start);
    let start = Instant::now();
    let cp = mpisim::critpath::analyze(&oout, &obs);
    t.critpath = ns_since(start);
    let start = Instant::now();
    let rec = mpisim::record::run_record(machine.name(), &oout, &obs, Some(&cp), None).canonicalized();
    t.record = ns_since(start);
    black_box(rec);

    let profiled = RunOptions {
        profile: true,
        ..RunOptions::default()
    };
    let start = Instant::now();
    let (_, pobs) = comm.run_observed(&[&sched], profiled)?;
    t.profiled = ns_since(start);
    if let Some(prof) = &pobs.engine_profile {
        t.loop_ns = prof.wall_ns() as f64;
        t.loop_events = prof.events_timed() as f64;
    }
    c.queue_high_water = pobs.queue_high_water as u64;
    c.typed = pobs.event_stats.typed;
    c.dynamic = pobs.event_stats.dynamic;
    c.continuations = pobs.event_stats.continuations;
    c.fifo_updates = pobs.fifo_updates;
    c.fifo_commits = pobs.fifo_commits;
    Ok((t, c))
}

/// One traced pass over every point, in the seeded order of `pass`.
/// Returns per-point times and counts indexed by point.
fn traced_pass(ready: &Ready, seed: u64, pass: usize) -> Result<Vec<(Times, Counts)>, String> {
    let mut per_point = vec![None; ready.points.len()];
    for i in pass_order(ready.points.len(), seed, pass) {
        let traced =
            trace_point(ready, i).map_err(|e| format!("{}: {e}", ready.points[i].label()))?;
        per_point[i] = Some(traced);
    }
    Ok(per_point.into_iter().flatten().collect())
}

/// The `--trace 1` run: one set-up, untraced passes for a quarter of
/// `seconds` (checked, with CPU and fault counters), then traced passes
/// until `seconds` have passed.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    reference: &Reference,
) -> Result<(bool, Tally, Vec<Metric>), String> {
    let mut warmup = Tally::default();
    let (ready, _) = set_up(w, reference, &mut warmup)?;
    let n = ready.points.len();

    // Untraced passes for a quarter of the time: long enough for the
    // 10 ms resolution of the CPU-time counters.
    let mut tally = Tally::default();
    let mut untraced = Vec::new();
    let usage_start = Usage::now()?;
    let phase = Instant::now();
    while untraced.is_empty() || phase.elapsed().as_secs_f64() < seconds / 4.0 {
        // Only the ops count, as in the timed run: the output check is
        // not part of the baseline the trace overhead is taken against.
        let mut ops_s = 0.0;
        for i in pass_order(n, seed, untraced.len()) {
            let start = Instant::now();
            let out = ready.run_op(i);
            ops_s += start.elapsed().as_secs_f64();
            tally.check(reference, &ready, i, out);
        }
        untraced.push(ops_s);
    }
    let usage = Usage::now()?.since(&usage_start);
    let untraced_s = median(&untraced);

    let mut passes: Vec<Vec<(Times, Counts)>> = Vec::new();
    let mut traced_s = Vec::new();
    while passes.is_empty() || phase.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        passes.push(traced_pass(&ready, seed, passes.len())?);
        traced_s.push(start.elapsed().as_secs_f64());
    }

    let counts: Vec<Counts> = passes[0].iter().map(|(_, c)| *c).collect();
    let repeatable = passes
        .iter()
        .all(|p| p.iter().map(|(_, c)| *c).eq(counts.iter().copied()));
    if !repeatable {
        eprintln!("{}: exact counts differ between traced passes", w.name());
    }

    // Per point, the median of each time over the passes.
    let med = |i: usize, f: &dyn Fn(&Times) -> f64| -> f64 {
        median(&passes.iter().map(|p| f(&p[i].0)).collect::<Vec<_>>())
    };
    let mut sum = Times::default();
    // `(events, run_with ns)` of each point, for the fixed + per-event fit.
    let mut fit_xy = Vec::with_capacity(n);
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>11} {:>10} {:>7} {:>11} {:>10} {:>10}",
        "point",
        "build_us",
        "check_us",
        "setup_us",
        "run_us",
        "events",
        "ns/ev",
        "observe+us",
        "critpath_us",
        "record_us"
    );
    for i in 0..n {
        let pt = Times {
            build: med(i, &|t| t.build),
            check: med(i, &|t| t.check),
            setup: med(i, &|t| t.setup),
            run: med(i, &|t| t.run),
            observe: med(i, &|t| t.observe),
            critpath: med(i, &|t| t.critpath),
            record: med(i, &|t| t.record),
            profiled: med(i, &|t| t.profiled),
            loop_ns: med(i, &|t| t.loop_ns),
            loop_events: passes[0][i].0.loop_events,
        };
        println!(
            "{:<22} {:>10.1} {:>10.1} {:>10.1} {:>11.1} {:>10} {:>7.1} {:>11.1} {:>10.1} {:>10.1}",
            ready.points[i].label(),
            pt.build / 1e3,
            pt.check / 1e3,
            pt.setup / 1e3,
            pt.run / 1e3,
            counts[i].events,
            pt.run / counts[i].events.max(1) as f64,
            (pt.observe - pt.run) / 1e3,
            pt.critpath / 1e3,
            pt.record / 1e3
        );
        sum.build += pt.build;
        sum.check += pt.check;
        sum.setup += pt.setup;
        sum.run += pt.run;
        sum.observe += pt.observe;
        sum.critpath += pt.critpath;
        sum.record += pt.record;
        sum.profiled += pt.profiled;
        sum.loop_ns += pt.loop_ns;
        sum.loop_events += pt.loop_events;
        fit_xy.push((counts[i].events as f64, pt.run));
    }

    let total = counts.iter().fold(Counts::default(), |a, c| Counts {
        events: a.events + c.events,
        queue_high_water: a.queue_high_water + c.queue_high_water,
        typed: a.typed + c.typed,
        dynamic: a.dynamic + c.dynamic,
        continuations: a.continuations + c.continuations,
        fifo_updates: a.fifo_updates + c.fifo_updates,
        fifo_commits: a.fifo_commits + c.fifo_commits,
    });
    let (xs, ys): (Vec<f64>, Vec<f64>) = fit_xy.into_iter().unzip();
    let fit = fit_line(&xs, &ys)
        .ok_or("fixed + per-event fit needs two runs with different event counts")?;
    let traced_pass_s = median(&traced_s);
    let overhead = traced_pass_s / untraced_s - 1.0;
    println!(
        "{}: {} traced passes (median {traced_pass_s:.3} s) vs {} untraced (median {untraced_s:.3} s): trace overhead {:+.1}%",
        w.name(),
        passes.len(),
        untraced.len(),
        overhead * 100.0
    );
    println!(
        "fit over {} runs: run_us = {:.1} us + {:.1} ns x events (r2 {:.4}); fifo commits per update {:.4}",
        xs.len(),
        fit.intercept / 1e3,
        fit.slope,
        fit.r2,
        total.fifo_commits as f64 / total.fifo_updates.max(1) as f64
    );
    println!(
        "host: untraced passes user_s={:.2} sys_s={:.2} minflt={} (diagnostic only)",
        usage.user_s, usage.sys_s, usage.minflt
    );

    let values = [
        sum.build / 1e3,
        sum.check / 1e3,
        sum.setup / 1e3,
        sum.run / 1e3,
        (sum.run - sum.check - sum.setup) / 1e3,
        fit.intercept / 1e3,
        fit.slope,
        fit.r2,
        sum.loop_ns / sum.loop_events.max(1.0),
        sum.loop_ns / sum.profiled.max(1.0),
        total.events as f64,
        total.queue_high_water as f64,
        total.typed as f64,
        total.dynamic as f64,
        total.continuations as f64,
        total.fifo_updates as f64,
        total.fifo_commits as f64,
        (sum.observe - sum.run) / 1e3,
        sum.critpath / 1e3,
        sum.record / 1e3,
        usage.sys_share(),
        usage.minflt as f64 / tally.attempted.max(1) as f64,
        overhead,
    ];
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    Ok((repeatable && warmup.failed == 0, tally, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact counts of one traced pass over `w`, in canonical point order.
    fn pass_counts(w: Workload, seed: u64) -> Vec<Counts> {
        let ready = Ready::build(w).expect("set-up");
        traced_pass(&ready, seed, 0)
            .expect("traced pass")
            .into_iter()
            .map(|(_, c)| c)
            .collect()
    }

    #[test]
    fn exact_counts_repeat_bit_for_bit_across_traced_runs() {
        for w in Workload::ALL {
            let a = pass_counts(w, 1);
            let b = pass_counts(w, 2);
            assert_eq!(a, b, "{}", w.name());
            assert!(a.iter().all(|c| c.events > 0 && c.typed > 0));
        }
    }
}
