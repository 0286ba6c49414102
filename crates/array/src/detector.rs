//! Fleet-wide detection over a striped array.
//!
//! Striping gives an attacker a new evasion: a campaign spread evenly
//! across N shards shows each per-shard detector only 1/N of the signal —
//! below the noise floors every detector needs to avoid false positives on
//! benign traffic (the entropy window's minimum sample count, the timing
//! profiler's minimum distinct-page floor). [`ArrayDetector`] closes the
//! gap by running the same [`Ensemble`] twice: once per shard (for
//! attribution — *which member* is being hit) and once over the merged
//! fleet-wide observation stream, where the campaign's full volume is
//! visible. The fleet verdict is the binding one: a campaign that looks
//! benign on every shard must still trip the aggregate.

use rssd_detect::{Ensemble, Verdict, WriteObservation};

/// Per-shard plus fleet-level detection state.
#[derive(Debug)]
pub struct ArrayDetector {
    fleet: Ensemble,
    per_shard: Vec<Ensemble>,
}

/// Snapshot of every verdict the detector holds.
#[derive(Clone, Debug)]
#[must_use]
pub struct FleetReport {
    /// Verdict over the merged fleet-wide stream — the binding one.
    pub fleet_verdict: Verdict,
    /// Combined fleet score in `[0, 1]`.
    pub fleet_score: f64,
    /// Per-shard `(verdict, score)`, indexed by shard.
    pub shard_verdicts: Vec<(Verdict, f64)>,
    /// Observations consumed fleet-wide.
    pub observations: u64,
}

impl FleetReport {
    /// Shards whose own detector already reached `Ransomware` — the
    /// attribution list for an operator.
    pub fn implicated_shards(&self) -> Vec<usize> {
        self.shard_verdicts
            .iter()
            .enumerate()
            .filter(|(_, (v, _))| *v == Verdict::Ransomware)
            .map(|(i, _)| i)
            .collect()
    }
}

impl ArrayDetector {
    /// Builds a detector for `shard_count` members.
    ///
    /// # Panics
    ///
    /// Panics on a zero shard count.
    pub fn new(shard_count: usize) -> Self {
        assert!(shard_count > 0, "array needs at least one shard");
        ArrayDetector {
            fleet: Ensemble::new(),
            per_shard: (0..shard_count).map(|_| Ensemble::new()).collect(),
        }
    }

    /// Number of members tracked.
    pub fn shard_count(&self) -> usize {
        self.per_shard.len()
    }

    /// Feeds one observation attributed to `shard`. Callers observing live
    /// traffic call this in global time order (the order the array executes
    /// commands), which keeps the fleet ensemble's windows honest.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range shard index.
    pub fn observe(&mut self, shard: usize, obs: &WriteObservation) {
        self.per_shard[shard].observe(obs);
        self.fleet.observe(obs);
    }

    /// Verdict over the merged fleet-wide stream.
    pub fn fleet_verdict(&self) -> Verdict {
        self.fleet.verdict()
    }

    /// Combined fleet score.
    pub fn fleet_score(&self) -> f64 {
        self.fleet.score()
    }

    /// Verdict of one member's own detector.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range shard index.
    pub fn shard_verdict(&self, shard: usize) -> Verdict {
        self.per_shard[shard].verdict()
    }

    /// Full snapshot for reporting.
    pub fn report(&self) -> FleetReport {
        FleetReport {
            fleet_verdict: self.fleet.verdict(),
            fleet_score: self.fleet.score(),
            shard_verdicts: self
                .per_shard
                .iter()
                .map(|e| (e.verdict(), e.score()))
                .collect(),
            observations: self.fleet.observations(),
        }
    }

    /// Resets both levels.
    pub fn reset(&mut self) {
        self.fleet.reset();
        for e in &mut self.per_shard {
            e.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A striped campaign: round-robin one encrypting overwrite per shard,
    /// interleaved with benign traffic, thin enough that no single shard's
    /// detector crosses its noise floors.
    fn striped_campaign(detector: &mut ArrayDetector, shards: usize, per_shard: usize) {
        let mut t = 0u64;
        for round in 0..per_shard {
            for shard in 0..shards {
                let lpa = (round * shards + shard) as u64;
                // The attacker's one encrypting overwrite on this shard...
                detector.observe(shard, &WriteObservation::overwrite(t, lpa, 7.9, false));
                t += 1_000;
                // ...hidden in ordinary traffic (fresh writes don't count
                // toward the entropy window, keeping per-shard samples low).
                for k in 0..6u64 {
                    detector.observe(
                        shard,
                        &WriteObservation::fresh_write(t, 1_000_000 + lpa * 8 + k, 4.0),
                    );
                    t += 1_000;
                }
            }
        }
    }

    #[test]
    fn per_shard_benign_campaign_trips_the_fleet() {
        let shards = 4;
        let mut d = ArrayDetector::new(shards);
        // 20 encrypted overwrites per shard: under the entropy window's
        // 32-sample floor and the timing profiler's 64-page floor per
        // shard, but 80 fleet-wide — over both.
        striped_campaign(&mut d, shards, 20);
        for shard in 0..shards {
            assert_eq!(
                d.shard_verdict(shard),
                Verdict::Benign,
                "shard {shard} must stay under its noise floors"
            );
        }
        assert_eq!(
            d.fleet_verdict(),
            Verdict::Ransomware,
            "fleet score {}",
            d.fleet_score()
        );
        let report = d.report();
        assert_eq!(report.fleet_verdict, Verdict::Ransomware);
        assert!(report.implicated_shards().is_empty());
        assert_eq!(report.observations, (20 * shards * 7) as u64);
    }

    #[test]
    fn concentrated_attack_is_attributed_to_its_shard() {
        let mut d = ArrayDetector::new(3);
        for i in 0..200u64 {
            d.observe(1, &WriteObservation::overwrite(i * 1_000, i, 7.9, true));
        }
        assert_eq!(d.shard_verdict(1), Verdict::Ransomware);
        assert_eq!(d.shard_verdict(0), Verdict::Benign);
        assert_eq!(d.fleet_verdict(), Verdict::Ransomware);
        assert_eq!(d.report().implicated_shards(), vec![1]);
    }

    #[test]
    fn benign_fleet_stays_benign_and_reset_clears() {
        let mut d = ArrayDetector::new(2);
        for i in 0..2_000u64 {
            d.observe(
                (i % 2) as usize,
                &WriteObservation::fresh_write(i * 1_000, i, 4.0),
            );
        }
        assert_eq!(d.fleet_verdict(), Verdict::Benign);
        d.reset();
        assert_eq!(d.report().observations, 0);
    }
}
