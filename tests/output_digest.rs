//! Byte-exact output oracle over the 21-point suite.
//!
//! The simulated timings are the product, so this test pins them
//! exactly against `tests/output_digest.txt`:
//!
//! * **Output.** The quick-protocol `dataset.csv` over the suite grid
//!   (`bench::perfgate::suite_dataset`, the call `observe --suite`
//!   makes), hashed whole and row by row. Also, per suite point, the
//!   canonical run record (`RunRecord::canonicalized()` of
//!   `bench::diffsuite::record_suite_point` under the committed
//!   tie-break order), hashed component by component. The point's
//!   elapsed time, census and critical-path blame are kept in clear, so
//!   a mismatch is explained through `obs::diff`.
//! * **Work.** Per suite point, what one default `run_with` does:
//!   engine events, messages, queue high-water mark and FIFO watermark
//!   commits. A change here means the executor does different work
//!   for the same output; it is reported separately from an output
//!   change.
//!
//! Every line changes only on purpose, in a change that says why. On a
//! mismatch the failure message ends with the current digest, ready to
//! be committed.

#![allow(clippy::unwrap_used)]

use bench::diffsuite::record_suite_point;
use bench::perfgate::{default_suite, suite_dataset, SuitePoint};
use mpisim::comm::RunOptions;
use mpisim::{Rank, TieBreakPolicy};
use obs::RunRecord;
use std::collections::BTreeMap;

const DIGEST_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/output_digest.txt");

const HEADER: &str = "\
# Output digest of the 21-point suite: see tests/output_digest.rs.
# dataset/row/record lines pin the simulated output (FNV-1a 64 hashes);
# work lines pin what one default run_with does. Update a line only in a
# change that says why.
";

/// FNV-1a, 64-bit: dependency-free and stable across hosts.
fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Whether a digest line pins output or work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Output,
    Work,
}

/// One digest line: `<kind> <name> <value>`, keyed by `<kind> <name>`.
struct Line {
    class: Class,
    key: String,
    value: String,
}

impl Line {
    fn new(class: Class, kind: &str, name: &str, value: String) -> Line {
        Line {
            class,
            key: format!("{kind} {name}"),
            value,
        }
    }
}

/// The canonical record's blame-level summary: what `obs::diff` can
/// explain from the digest alone.
fn skeleton(rec: &RunRecord) -> RunRecord {
    RunRecord {
        elapsed_ns: rec.elapsed_ns,
        blame_ns: rec.blame_ns.clone(),
        census: rec.census,
        ..RunRecord::default()
    }
}

fn skeleton_fields(s: &RunRecord) -> String {
    let census = match s.census {
        Some((t, u)) => format!("{t}/{u}"),
        None => "none".into(),
    };
    let blame: Vec<String> = s.blame_ns.iter().map(|(k, v)| format!("{k}:{v}")).collect();
    format!(
        "elapsed_ns={} census={census} blame={}",
        s.elapsed_ns,
        blame.join(",")
    )
}

fn parse_skeleton(value: &str) -> RunRecord {
    let mut s = RunRecord::default();
    for field in value.split_whitespace() {
        let (k, v) = field.split_once('=').unwrap_or((field, ""));
        match k {
            "elapsed_ns" => s.elapsed_ns = v.parse().unwrap_or(0),
            "census" => {
                s.census = v
                    .split_once('/')
                    .and_then(|(t, u)| Some((t.parse().ok()?, u.parse().ok()?)));
            }
            "blame" => {
                for kv in v.split(',').filter(|kv| !kv.is_empty()) {
                    let (cat, ns) = kv.split_once(':').unwrap_or((kv, "0"));
                    s.blame_ns.insert(cat.into(), ns.parse().unwrap_or(0));
                }
            }
            _ => {}
        }
    }
    s
}

/// The record line's value: one hash per canonical-record component
/// (together they cover the whole canonical form), then the skeleton.
fn record_value(rec: &RunRecord) -> String {
    let mut c = rec.canonicalized();
    let part = |r: RunRecord| fnv1a(r.to_json_string().as_bytes());
    let events = part(RunRecord {
        events: std::mem::take(&mut c.events),
        ..RunRecord::default()
    });
    let transfers = part(RunRecord {
        transfers: std::mem::take(&mut c.transfers),
        ..RunRecord::default()
    });
    let spans = part(RunRecord {
        spans: std::mem::take(&mut c.spans),
        ..RunRecord::default()
    });
    let summary = part(c);
    format!(
        "events={events} transfers={transfers} spans={spans} summary={summary} {}",
        skeleton_fields(&skeleton(rec))
    )
}

fn work_value(pt: &SuitePoint) -> String {
    let comm = pt.machine.communicator(pt.nodes).unwrap();
    let schedule = comm.schedule(pt.op, Rank(0), pt.bytes).unwrap();
    let out = comm.run_with(&[&schedule], RunOptions::default()).unwrap();
    let (_, observed) = comm
        .run_observed(&[&schedule], RunOptions::default())
        .unwrap();
    format!(
        "events={} messages={} queue_high_water={} fifo_commits={}",
        out.events, out.messages, observed.queue_high_water, observed.fifo_commits
    )
}

/// Computes every digest line at the current commit, plus each record's
/// skeleton (kept for explaining a mismatch).
fn current() -> (Vec<Line>, BTreeMap<String, RunRecord>) {
    let mut lines = Vec::new();
    let csv = suite_dataset(1).unwrap().to_csv();
    lines.push(Line::new(
        Class::Output,
        "dataset",
        "csv",
        fnv1a(csv.as_bytes()),
    ));
    for row in csv.lines().skip(1) {
        // The identifying columns: machine, operation, bytes, nodes
        // (machine names contain spaces, which separate line fields).
        let id: Vec<&str> = row.splitn(5, ',').take(4).collect();
        lines.push(Line::new(
            Class::Output,
            "row",
            &id.join(",").replace(' ', "_"),
            fnv1a(row.as_bytes()),
        ));
    }
    let mut records = BTreeMap::new();
    let suite = default_suite();
    for pt in &suite {
        let rec = record_suite_point(pt, TieBreakPolicy::InsertionOrder, None);
        lines.push(Line::new(
            Class::Output,
            "record",
            &pt.label(),
            record_value(&rec),
        ));
        records.insert(pt.label(), skeleton(&rec));
    }
    for pt in &suite {
        lines.push(Line::new(Class::Work, "work", &pt.label(), work_value(pt)));
    }
    (lines, records)
}

fn render(lines: &[Line]) -> String {
    let mut out = String::from(HEADER);
    for l in lines {
        out.push_str(&format!("{} {}\n", l.key, l.value));
    }
    out
}

/// Committed lines, keyed by `<kind> <name>`.
fn committed(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut it = l.splitn(3, ' ');
            let (kind, name) = (it.next()?, it.next()?);
            Some((
                format!("{kind} {name}"),
                it.next().unwrap_or("").to_string(),
            ))
        })
        .collect()
}

/// Why a record line differs: which components changed, and the
/// `obs::diff` report of the committed skeleton against the current one.
fn explain_record(label: &str, want: &str, got: &str, current: &RunRecord) -> String {
    let fields = |v: &str| -> BTreeMap<String, String> {
        v.split_whitespace()
            .filter_map(|f| f.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    let (w, g) = (fields(want), fields(got));
    let changed: Vec<&str> = ["events", "transfers", "spans", "summary"]
        .into_iter()
        .filter(|k| w.get(*k) != g.get(*k))
        .collect();
    let report = obs::diff::diff(&parse_skeleton(want), current);
    format!(
        "first differing point: {label} (changed components: {})\n{}",
        changed.join(", "),
        report::diff::render_report(label, &report)
    )
}

#[test]
fn suite_output_and_work_match_the_committed_digest() {
    let (lines, records) = current();
    let fresh = render(&lines);
    let text = std::fs::read_to_string(DIGEST_PATH).unwrap_or_default();
    let want = committed(&text);

    let mut output = Vec::new();
    let mut work = Vec::new();
    let mut explanation = None;
    for l in &lines {
        let Some(w) = want.get(&l.key) else {
            output.push(format!("{}: missing from the digest", l.key));
            continue;
        };
        if *w == l.value {
            continue;
        }
        let msg = format!("{}:\n  committed {w}\n  current   {}", l.key, l.value);
        match l.class {
            Class::Output => {
                if explanation.is_none() {
                    if let Some(label) = l.key.strip_prefix("record ") {
                        explanation = Some(explain_record(label, w, &l.value, &records[label]));
                    }
                }
                output.push(msg);
            }
            Class::Work => work.push(msg),
        }
    }
    let stale = want.len() != lines.len();
    if output.is_empty() && work.is_empty() && !stale {
        return;
    }
    let mut msg = String::new();
    if !output.is_empty() {
        msg.push_str(&format!("output changed:\n{}\n", output.join("\n")));
    }
    if let Some(e) = explanation {
        msg.push_str(&format!("\n{e}\n"));
    }
    if !work.is_empty() {
        msg.push_str(&format!("work changed:\n{}\n", work.join("\n")));
    }
    if stale {
        msg.push_str(&format!(
            "the digest has {} lines, the suite produces {}\n",
            want.len(),
            lines.len()
        ));
    }
    panic!("{msg}\ncurrent digest ({DIGEST_PATH}):\n{fresh}");
}
