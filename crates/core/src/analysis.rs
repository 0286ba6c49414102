//! Trusted post-attack analysis.
//!
//! Given the verified operation history (local pending tail + every
//! offloaded segment, chain-checked end to end), the analyzer reconstructs
//! the I/O timeline, runs the detection ensemble over it, classifies the
//! attack model, and produces the artifacts an investigator needs: the
//! attack window, the set of victim pages, and the per-detector evidence.

use crate::logrec::{LogOp, LogRecord};
use rssd_detect::{Ensemble, Verdict, WriteObservation, CIPHERTEXT_BITS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Which of the paper's attack models the history exhibits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackClass {
    /// No attack found.
    None,
    /// Fast read-encrypt-overwrite ransomware.
    Classic,
    /// Encryption accompanied by capacity flooding to force GC.
    GcAttack,
    /// Rate-limited encryption spread over a long horizon.
    TimingAttack,
    /// Encryption (or plain destruction) via trim commands.
    TrimmingAttack,
}

impl std::fmt::Display for AttackClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AttackClass::None => "none",
            AttackClass::Classic => "classic ransomware",
            AttackClass::GcAttack => "GC attack",
            AttackClass::TimingAttack => "timing attack",
            AttackClass::TrimmingAttack => "trimming attack",
        };
        f.write_str(s)
    }
}

/// The analyzer's findings.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[must_use]
pub struct AnalysisReport {
    /// Ensemble verdict over the whole history.
    pub verdict: Verdict,
    /// Best-effort attack classification.
    pub attack_class: AttackClass,
    /// Combined suspicion score in `[0, 1]`.
    pub score: f64,
    /// Per-detector scores (name, score).
    pub member_scores: Vec<(String, f64)>,
    /// Time of the first operation attributed to the attack.
    pub attack_start_ns: Option<u64>,
    /// Time of the last operation attributed to the attack.
    pub attack_end_ns: Option<u64>,
    /// Logical pages whose content the attack destroyed (encrypted over or
    /// trimmed) — the recovery work list.
    pub victim_lpas: Vec<u64>,
    /// Records examined.
    pub records_examined: u64,
    /// Did the evidence chain verify end to end?
    pub chain_verified: bool,
}

/// Reconstructs observations and classifies attacks from verified history.
#[derive(Debug, Default)]
pub struct PostAttackAnalyzer;

impl PostAttackAnalyzer {
    /// Creates an analyzer.
    pub fn new() -> Self {
        PostAttackAnalyzer
    }

    /// Converts a log record into a detector observation.
    pub fn observation(record: &LogRecord) -> WriteObservation {
        match record.op {
            LogOp::Trim => WriteObservation::trim(record.at_ns, record.lpa),
            _ => WriteObservation {
                at_ns: record.at_ns,
                lpa: record.lpa,
                entropy_bits: record.entropy_bits(),
                overwrote_valid: record.old_page_index.is_some(),
                read_before_overwrite: record.read_before,
                is_trim: false,
            },
        }
    }

    /// Analyzes a verified history (as returned by
    /// [`crate::RssdDevice::verified_history`]).
    pub fn analyze(&self, history: &[LogRecord], chain_verified: bool) -> AnalysisReport {
        let mut ensemble = Ensemble::new();
        let mut victim_lpas: BTreeSet<u64> = BTreeSet::new();
        let mut malicious_times: Vec<u64> = Vec::new();
        let mut fresh_write_pages = 0u64;
        let mut trimmed_victims = 0u64;

        for record in history {
            if record.op == LogOp::Read {
                continue;
            }
            let obs = Self::observation(record);
            ensemble.observe(&obs);

            match record.op {
                LogOp::Trim => {
                    victim_lpas.insert(record.lpa);
                    malicious_times.push(record.at_ns);
                    trimmed_victims += 1;
                }
                LogOp::Write => {
                    if record.old_page_index.is_some() && record.entropy_bits() >= CIPHERTEXT_BITS {
                        victim_lpas.insert(record.lpa);
                        malicious_times.push(record.at_ns);
                    } else {
                        // Benign rewrite releases the page from the victim
                        // set (the user replaced the content themselves).
                        victim_lpas.remove(&record.lpa);
                        if record.old_page_index.is_none() {
                            fresh_write_pages += 1;
                        }
                    }
                }
                LogOp::Read => unreachable!("filtered above"),
            }
        }

        let verdict = ensemble.verdict();
        let attack_start_ns = malicious_times.iter().copied().min();
        let attack_end_ns = malicious_times.iter().copied().max();

        let attack_class = if verdict == Verdict::Benign || victim_lpas.is_empty() {
            AttackClass::None
        } else if trimmed_victims as f64 >= 0.5 * victim_lpas.len() as f64 {
            AttackClass::TrimmingAttack
        } else {
            let span_ns = attack_end_ns
                .unwrap_or(0)
                .saturating_sub(attack_start_ns.unwrap_or(0));
            let span_hours = span_ns as f64 / 3.6e12;
            let encrypted = malicious_times.len() as f64;
            let rate_per_hour = if span_hours > 0.0 {
                encrypted / span_hours
            } else {
                f64::INFINITY
            };
            // Rate-limited encryption over a long horizon is the timing
            // attack; a short, intense encryption accompanied by a flood of
            // fresh writes (to force GC) is the GC attack.
            if span_hours > 24.0 && rate_per_hour < 100.0 {
                AttackClass::TimingAttack
            } else if fresh_write_pages > 4 * victim_lpas.len() as u64 && fresh_write_pages > 1000 {
                AttackClass::GcAttack
            } else {
                AttackClass::Classic
            }
        };

        AnalysisReport {
            verdict,
            attack_class,
            score: ensemble.score(),
            member_scores: ensemble
                .member_scores()
                .into_iter()
                .map(|(n, s)| (n.to_string(), s))
                .collect(),
            attack_start_ns,
            attack_end_ns,
            victim_lpas: victim_lpas.into_iter().collect(),
            records_examined: history.len() as u64,
            chain_verified,
        }
    }

    /// Backtracks the operations that touched `lpa`, newest first — the
    /// "evidence chain for one file" an investigator pulls.
    pub fn backtrack_lpa(history: &[LogRecord], lpa: u64) -> Vec<&LogRecord> {
        let mut ops: Vec<&LogRecord> = history.iter().filter(|r| r.lpa == lpa).collect();
        ops.reverse();
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(
        seq: u64,
        at_ns: u64,
        lpa: u64,
        entropy: f64,
        old: bool,
        read_before: bool,
    ) -> LogRecord {
        LogRecord {
            seq,
            at_ns,
            op: LogOp::Write,
            lpa,
            old_page_index: old.then_some(lpa * 10),
            entropy_mil: (entropy * 1000.0) as u16,
            read_before,
            old_data: None,
        }
    }

    fn trim(seq: u64, at_ns: u64, lpa: u64) -> LogRecord {
        LogRecord {
            seq,
            at_ns,
            op: LogOp::Trim,
            lpa,
            old_page_index: Some(lpa * 10),
            entropy_mil: 0,
            read_before: false,
            old_data: None,
        }
    }

    #[test]
    fn benign_history_classifies_none() {
        let history: Vec<LogRecord> = (0..500)
            .map(|i| write(i, i * 1_000, i % 100, 4.0, i % 3 == 0, false))
            .collect();
        let report = PostAttackAnalyzer::new().analyze(&history, true);
        assert_eq!(report.verdict, Verdict::Benign);
        assert_eq!(report.attack_class, AttackClass::None);
        assert!(report.victim_lpas.is_empty());
    }

    #[test]
    fn classic_attack_classified_with_window_and_victims() {
        let mut history: Vec<LogRecord> = (0..100)
            .map(|i| write(i, i * 1_000, 1000 + i, 4.0, false, false))
            .collect();
        // Burst of read-encrypt-overwrites at t=10^9.
        for k in 0..300u64 {
            history.push(write(100 + k, 1_000_000_000 + k, k, 7.9, true, true));
        }
        let report = PostAttackAnalyzer::new().analyze(&history, true);
        assert_eq!(report.verdict, Verdict::Ransomware);
        assert_eq!(report.attack_class, AttackClass::Classic);
        assert_eq!(report.victim_lpas.len(), 300);
        assert_eq!(report.attack_start_ns, Some(1_000_000_000));
        assert_eq!(report.attack_end_ns, Some(1_000_000_299));
    }

    #[test]
    fn trimming_attack_classified() {
        let mut history: Vec<LogRecord> = (0..100)
            .map(|i| write(i, i, 1000 + i, 4.0, false, false))
            .collect();
        for k in 0..200u64 {
            history.push(trim(100 + k, 2_000_000 + k, k));
        }
        let report = PostAttackAnalyzer::new().analyze(&history, true);
        assert_eq!(report.attack_class, AttackClass::TrimmingAttack);
        assert_eq!(report.victim_lpas.len(), 200);
    }

    #[test]
    fn timing_attack_classified() {
        let hour = 3_600_000_000_000u64;
        let mut history: Vec<LogRecord> = (0..20_000)
            .map(|i| write(i, i, 10_000 + i, 4.0, false, false))
            .collect();
        // 8 pages/hour over 200 hours.
        for h in 0..200u64 {
            for k in 0..8u64 {
                history.push(write(
                    20_000 + h * 8 + k,
                    h * hour,
                    h * 8 + k,
                    7.9,
                    true,
                    false,
                ));
            }
        }
        history.sort_by_key(|r| r.at_ns);
        let report = PostAttackAnalyzer::new().analyze(&history, true);
        assert_eq!(report.verdict, Verdict::Ransomware);
        assert_eq!(report.attack_class, AttackClass::TimingAttack);
        assert_eq!(report.victim_lpas.len(), 1600);
    }

    #[test]
    fn gc_attack_classified() {
        let mut history: Vec<LogRecord> = Vec::new();
        // Encrypt a modest victim set...
        for k in 0..300u64 {
            history.push(write(k, 1_000 + k, k, 7.9, true, true));
        }
        // ...then flood with fresh data to force GC.
        for k in 0..10_000u64 {
            history.push(write(300 + k, 2_000 + k, 50_000 + k, 5.0, false, false));
        }
        let report = PostAttackAnalyzer::new().analyze(&history, true);
        assert_eq!(report.attack_class, AttackClass::GcAttack);
    }

    #[test]
    fn benign_rewrite_clears_victims() {
        let mut history = vec![write(0, 0, 5, 7.9, true, true); 1];
        history.push(write(1, 10, 5, 3.0, true, false));
        let report = PostAttackAnalyzer::new().analyze(&history, true);
        assert!(report.victim_lpas.is_empty());
    }

    #[test]
    fn backtrack_returns_newest_first() {
        let history = vec![
            write(0, 0, 5, 4.0, false, false),
            write(1, 10, 6, 4.0, false, false),
            write(2, 20, 5, 7.9, true, true),
        ];
        let ops = PostAttackAnalyzer::backtrack_lpa(&history, 5);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].seq, 2);
        assert_eq!(ops[1].seq, 0);
    }

    #[test]
    fn reads_are_skipped_but_counted() {
        let history = vec![LogRecord {
            seq: 0,
            at_ns: 0,
            op: LogOp::Read,
            lpa: 1,
            old_page_index: None,
            entropy_mil: 0,
            read_before: false,
            old_data: None,
        }];
        let report = PostAttackAnalyzer::new().analyze(&history, true);
        assert_eq!(report.records_examined, 1);
        assert_eq!(report.attack_class, AttackClass::None);
    }
}
