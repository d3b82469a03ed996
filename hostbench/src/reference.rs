//! Per-point references of the simulated outputs, stored with the
//! benchmark in `reference.txt`: one line per (workload, point) holding
//! the digest of the canonical output and a readable summary.
//! The op order depends on the seed; the references do not.

use crate::workload::{Output, Workload};
use std::collections::HashMap;

/// The reference file, compiled in so a run reads no file for it.
const EMBEDDED: &str = include_str!("../reference.txt");

/// Digest per `(workload, point label)`.
pub struct Reference {
    digests: HashMap<(String, String), u64>,
}

impl Reference {
    /// Parses reference lines `<workload> <label> <digest-hex> <summary…>`.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut digests = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let mut f = line.split_whitespace();
            let (Some(w), Some(label), Some(hex)) = (f.next(), f.next(), f.next()) else {
                return Err(format!("reference line {}: too few fields", n + 1));
            };
            let digest = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("reference line {}: digest {hex}: {e}", n + 1))?;
            digests.insert((w.to_string(), label.to_string()), digest);
        }
        Ok(Reference { digests })
    }

    /// The references shipped with the benchmark.
    ///
    /// # Errors
    ///
    /// Fails when the shipped file is malformed.
    pub fn embedded() -> Result<Reference, String> {
        Reference::parse(EMBEDDED)
    }

    /// True when `digest` (from [`Output::digest`]) matches the stored
    /// reference of `label` in workload `w`; a point with no reference
    /// does not match.
    pub fn matches(&self, w: Workload, label: &str, digest: u64) -> bool {
        self.digests
            .get(&(w.name().to_string(), label.to_string()))
            .is_some_and(|&d| d == digest)
    }
}

/// The reference line of one point.
pub fn line(w: Workload, label: &str, out: Output) -> String {
    let summary = out.summary();
    let digest = out.digest();
    format!("{} {label} {digest:016x} {summary}", w.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Ready;

    #[test]
    fn shipped_reference_covers_every_point() {
        let r = Reference::embedded().expect("well-formed reference file");
        for w in Workload::ALL {
            for pt in w.points() {
                assert!(
                    r.digests.contains_key(&(w.name().to_string(), pt.label())),
                    "{} {}",
                    w.name(),
                    pt.label()
                );
            }
        }
    }

    #[test]
    fn swapped_machine_reference_is_reported_as_failed() {
        let r = Reference::embedded().expect("well-formed reference file");
        for w in Workload::ALL {
            let ready = Ready::build(w).expect("set-up");
            // The first broadcast point of each machine.
            let bcast = |machine: &str| {
                let i = (0..ready.points.len())
                    .find(|&i| {
                        let label = ready.points[i].label();
                        label.starts_with(&format!("{machine}/bcast/"))
                    })
                    .expect("broadcast point");
                let digest = ready.run_op(i).expect("op").digest();
                (ready.points[i].label(), digest)
            };
            let (sp2_label, sp2) = bcast("sp2");
            let (t3d_label, t3d) = bcast("t3d");
            assert!(r.matches(w, &sp2_label, sp2), "{} own", w.name());
            assert!(r.matches(w, &t3d_label, t3d), "{} own", w.name());
            // Each machine's output checked against the other's reference.
            assert!(!r.matches(w, &t3d_label, sp2), "{} swapped", w.name());
            assert!(!r.matches(w, &sp2_label, t3d), "{} swapped", w.name());
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Reference::parse("rerun sp2/bcast/4096").is_err());
        assert!(Reference::parse("rerun sp2/bcast/4096 xyz summary").is_err());
        assert!(Reference::parse("# comment\n\nrerun a 00ff s").is_ok());
    }
}
