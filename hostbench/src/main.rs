//! Host-time benchmark of the simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <rerun|cold-tool> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path hostbench/Cargo.toml -- --write-reference <file>
//! ```
//!
//! Every workload is a serial closed loop: one client on one thread,
//! each op starting when the previous one ends, no file I/O while
//! timing. With `--trace 0` the run times whole passes over the
//! workload's points in a seeded order and prints the end-to-end
//! metrics; with `--trace 1` it times each layer from outside instead
//! (see `trace.rs`). Every op's simulated output is checked against
//! `reference.txt`. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod host;
mod reference;
mod stats;
mod trace;
mod workload;

use reference::Reference;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{pass_order, Output, Ready, Workload};

/// Set-ups per run, spread evenly over the timed phase; `setup_s` is
/// the fastest of them.
const SETUP_REPEATS: usize = 15;

/// Interleaved rounds of the timed phase: pass k belongs to round
/// k mod `ROUNDS`. Each (round, point) reports its fastest op, the
/// host's least contended speed. On a shared host that swings by 1.5×
/// over minutes it reads steadily where a mean over the run does not
/// (README.md, "Why best of a round"). 5 rounds give 105 latencies for
/// the 21 points, which puts `op_tail_ms` at p90, inside the alltoall
/// block (15 of 105).
const ROUNDS: usize = 5;

/// Host probes taken before set-up and again after the last metric.
const PROBES: usize = 5;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    WriteReference(String),
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(1..=120).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=120"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            "--write-reference" => return Ok(Command::WriteReference(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1)).and_then(|cmd| match cmd {
        Command::Run(args) => run(&args),
        Command::WriteReference(path) => write_reference(&path),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Outcome counters of checked ops.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Checks one op's result against the reference; errors and
    /// mismatches count as failed.
    pub fn check(
        &mut self,
        reference: &Reference,
        ready: &Ready,
        i: usize,
        out: Result<Output, mpisim::SimMpiError>,
    ) {
        self.attempted += 1;
        let label = ready.points[i].label();
        let problem = match out.map(Output::digest) {
            Ok(digest) if reference.matches(ready.workload, &label, digest) => return,
            Ok(_) => "simulated output differs from the reference".to_string(),
            Err(e) => e.to_string(),
        };
        self.failed += 1;
        eprintln!("{} {label}: {problem}", ready.workload.name());
    }
}

/// Builds the workload and runs its warm-up ops, returning the ready
/// state and the host time of the build plus the warm-up ops (output
/// checks excluded).
pub fn set_up(
    w: Workload,
    reference: &Reference,
    warmup: &mut Tally,
) -> Result<(Ready, Duration), String> {
    let t = Instant::now();
    let ready = Ready::build(w).map_err(|e| e.to_string())?;
    let mut spent = t.elapsed();
    for i in w.warmup_ops() {
        let t = Instant::now();
        let out = ready.run_op(i);
        spent += t.elapsed();
        warmup.check(reference, &ready, i, out);
    }
    Ok((ready, spent))
}

fn run(args: &Args) -> Result<(), String> {
    let reference = Reference::embedded()?;
    let w = args.workload;
    let cpu_probe = || stats::median(&(0..PROBES).map(|_| host::probe_ms()).collect::<Vec<_>>());
    let cpu_before = cpu_probe();
    let (correct, tally, metrics) = if args.trace {
        trace::run(w, args.seed, args.seconds, &reference)?
    } else {
        timed(args, &reference)?
    };
    let cpu_after = cpu_probe();
    println!(
        "host: probe_ms before={cpu_before:.3} after={cpu_after:.3} (medians of {PROBES}; diagnostic only)"
    );
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct && tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(())
}

/// The untraced run: whole passes of timed ops for `--seconds` of wall
/// time, with set-ups spread evenly over the phase. Pass `k` belongs to
/// round `k mod ROUNDS`, and each op latency the metrics are taken from
/// is the fastest op of one point in one round. The output check runs
/// between ops with the op clock stopped.
fn timed(args: &Args, reference: &Reference) -> Result<(bool, Tally, Vec<Metric>), String> {
    let w = args.workload;
    let mut warmup = Tally::default();
    let (mut ready, first) = set_up(w, reference, &mut warmup)?;
    let mut setups = vec![first.as_secs_f64()];

    let n = ready.points.len();
    let mut best_ms = vec![f64::INFINITY; ROUNDS * n];
    let mut tally = Tally::default();
    let mut busy_s = 0.0;
    let mut passes = 0;
    let usage_start = host::Usage::now()?;
    let phase = Instant::now();
    while passes < ROUNDS || phase.elapsed().as_secs_f64() < args.seconds {
        let round = &mut best_ms[(passes % ROUNDS) * n..][..n];
        for i in pass_order(n, args.seed, passes) {
            // The next set-up is due once the phase is that far along.
            let due = setups.len() as f64 * args.seconds / SETUP_REPEATS as f64;
            if setups.len() < SETUP_REPEATS && phase.elapsed().as_secs_f64() >= due {
                // Drop the current state first so each set-up starts from nothing.
                drop(ready);
                let (r, spent) = set_up(w, reference, &mut warmup)?;
                ready = r;
                setups.push(spent.as_secs_f64());
            }
            let t = Instant::now();
            let out = ready.run_op(i);
            let op_s = t.elapsed().as_secs_f64();
            busy_s += op_s;
            round[i] = round[i].min(op_s * 1e3);
            tally.check(reference, &ready, i, out);
        }
        passes += 1;
    }
    let usage = host::Usage::now()?.since(&usage_start);
    let peak = host::peak_rss_mb()?;

    let mut lat_ms = best_ms;
    lat_ms.sort_by(f64::total_cmp);
    let tail_pct = stats::tail_percentile(lat_ms.len()).unwrap_or(50.0);
    let values = [
        lat_ms.len() as f64 / (lat_ms.iter().sum::<f64>() / 1e3),
        stats::percentile(&lat_ms, 50.0),
        stats::percentile(&lat_ms, tail_pct),
        stats::min(&setups),
        peak,
    ];
    println!(
        "{}: {} ops in {passes} passes of {n} ({ROUNDS} rounds, {} per round), {busy_s:.3} s in ops, {:.1} ops/s over all ops (diagnostic only)",
        w.name(),
        tally.attempted,
        passes / ROUNDS,
        tally.attempted as f64 / busy_s,
    );
    println!(
        "op_tail_ms is p{tail_pct} of N={} best-of-round latencies ({} beyond it)",
        lat_ms.len(),
        lat_ms.len() - lat_ms.iter().filter(|&&x| x <= values[2]).count()
    );
    println!(
        "setup_s: fastest of {} set-ups spread over the timed phase (median {:.4}) {:?}; {} warm-up ops checked, {} failed",
        setups.len(),
        stats::median(&setups),
        setups,
        warmup.attempted,
        warmup.failed
    );
    println!(
        "host: timed phase user_s={:.2} sys_s={:.2} minflt={} (diagnostic only)",
        usage.user_s, usage.sys_s, usage.minflt
    );
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    Ok((warmup.failed == 0, tally, metrics))
}

/// Writes the reference line of every point of every workload.
fn write_reference(path: &str) -> Result<(), String> {
    let mut lines = vec![
        "# Simulated-output references: <workload> <point> <digest of the canonical output> <summary>".to_string(),
        "# Regenerate with `--write-reference` only when a change alters simulated output on purpose.".to_string(),
    ];
    for w in Workload::ALL {
        let ready = Ready::build(w).map_err(|e| e.to_string())?;
        for (i, pt) in ready.points.iter().enumerate() {
            let out = ready
                .run_op(i)
                .map_err(|e| format!("{}: {e}", pt.label()))?;
            lines.push(reference::line(w, &pt.label(), out));
        }
    }
    std::fs::write(path, lines.join("\n") + "\n").map_err(|e| format!("writing {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let body = &json[start..];
        let end = body.find(']').expect("list end");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(json, "end_to_end"), e2e);
        let layers: Vec<String> = trace::PER_LAYER
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(names_in(json, "per_layer"), layers);
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names_in(json, "workloads"), workloads);
    }

    #[test]
    fn rounds_put_the_tail_at_p90() {
        for w in Workload::ALL {
            let n = ROUNDS * w.points().len();
            assert_eq!(stats::tail_percentile(n), Some(90.0), "{}", w.name());
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload rerun --seed 1 --seconds 10 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload rerun --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload rerun --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload rerun --seed 1 --seconds 10").is_err());
    }
}
