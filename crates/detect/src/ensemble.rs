//! Detector ensemble and verdicts.

use crate::entropy::EntropyDetector;
use crate::observation::WriteObservation;
use crate::pattern::{OverwriteCorrelator, TrimSurgeDetector};
use crate::timing::TimingProfiler;
use crate::victims::VictimSet;
use crate::Detector;

/// Classification produced by the ensemble.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Nothing notable.
    #[default]
    Benign,
    /// Elevated signals; worth flagging for an operator.
    Suspicious,
    /// Confident ransomware detection.
    Ransomware,
}

/// A weighted ensemble of the four detectors with a maximum-signal fallback:
/// any single detector at full confidence forces a detection, because the
/// attacks are designed so that each evades *most* detectors.
#[derive(Debug, Default)]
pub struct Ensemble {
    entropy: EntropyDetector,
    correlator: OverwriteCorrelator,
    trim_surge: TrimSurgeDetector,
    timing: TimingProfiler,
    observations: u64,
}

impl Ensemble {
    /// Builds the default ensemble.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation to every member.
    pub fn observe(&mut self, obs: &WriteObservation) {
        self.entropy.observe(obs);
        self.correlator.observe(obs);
        self.trim_surge.observe(obs);
        self.timing.observe(obs);
        self.observations += 1;
    }

    /// Feeds a batch.
    pub fn observe_all<'a, I: IntoIterator<Item = &'a WriteObservation>>(&mut self, obs: I) {
        for o in obs {
            self.observe(o);
        }
    }

    /// The victim set the timing profiler keeps (the analyzer's report).
    pub fn victims(&self) -> &VictimSet {
        &self.timing.victims
    }

    /// Observations consumed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Combined score: weighted mean with a max-signal floor.
    pub fn score(&self) -> f64 {
        let weighted = 0.30 * self.entropy.score()
            + 0.30 * self.correlator.score()
            + 0.20 * self.trim_surge.score()
            + 0.20 * self.timing.score();
        let strongest = self
            .member_scores()
            .into_iter()
            .map(|(_, s)| s)
            .fold(0.0f64, f64::max);
        weighted.max(if strongest >= 0.99 { 0.9 } else { 0.0 })
    }

    /// Per-member scores (for the forensic report).
    pub fn member_scores(&self) -> Vec<(&'static str, f64)> {
        vec![
            (self.entropy.name(), self.entropy.score()),
            (self.correlator.name(), self.correlator.score()),
            (self.trim_surge.name(), self.trim_surge.score()),
            (self.timing.name(), self.timing.score()),
        ]
    }

    /// Current verdict: `Ransomware` at ≥ 0.6, `Suspicious` at ≥ 0.3.
    pub fn verdict(&self) -> Verdict {
        let s = self.score();
        if s >= 0.6 {
            Verdict::Ransomware
        } else if s >= 0.3 {
            Verdict::Suspicious
        } else {
            Verdict::Benign
        }
    }

    /// Emits the current verdict, combined score and every member score as
    /// one instant on the `detect` track of `sink`, stamped at simulated
    /// time `sim_ns`. No-op on a disabled sink.
    pub fn trace_verdict(&self, sink: &rssd_obs::SinkHandle, sim_ns: u64) {
        if !sink.is_enabled() {
            return;
        }
        let mut args = vec![
            ("verdict", format!("{:?}", self.verdict())),
            ("score", format!("{:.3}", self.score())),
            ("observations", self.observations.to_string()),
        ];
        for (name, score) in self.member_scores() {
            args.push((name, format!("{score:.3}")));
        }
        sink.instant("detect", "verdict", sim_ns, &args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge_time_ordered;

    #[test]
    fn benign_workload_stays_benign() {
        let mut e = Ensemble::new();
        for i in 0..5_000u64 {
            // Mixed fresh writes and low-entropy overwrites, no read
            // correlation, no trims.
            if i % 3 == 0 {
                e.observe(&WriteObservation::overwrite(i * 1000, i % 500, 4.5, false));
            } else {
                e.observe(&WriteObservation::fresh_write(i * 1000, 1000 + i, 3.0));
            }
        }
        assert_eq!(e.verdict(), Verdict::Benign, "score {}", e.score());
    }

    #[test]
    fn classic_ransomware_detected() {
        let mut e = Ensemble::new();
        for i in 0..500u64 {
            e.observe(&WriteObservation::overwrite(i * 1000, i, 7.9, true));
        }
        assert_eq!(e.verdict(), Verdict::Ransomware);
    }

    #[test]
    fn trimming_attack_detected_by_surge() {
        let mut e = Ensemble::new();
        // Encrypt-to-new-place writes (fresh, evade entropy-overwrite), then
        // mass trim of originals.
        for i in 0..300u64 {
            e.observe(&WriteObservation::fresh_write(i * 1000, 10_000 + i, 7.9));
            e.observe(&WriteObservation::trim(i * 1000 + 1, i));
        }
        assert_eq!(e.verdict(), Verdict::Ransomware);
    }

    #[test]
    fn timing_attack_detected_long_horizon() {
        let mut e = Ensemble::new();
        let hour = 3_600_000_000_000u64;
        // Benign background across a large working set.
        for i in 0..20_000u64 {
            e.observe(&WriteObservation::fresh_write(i, i, 4.0));
        }
        // Slow encryptor: 8 pages/hour for 300 hours, spaced out so
        // window-based detectors see mostly benign traffic in between.
        for h in 0..300u64 {
            for k in 0..8u64 {
                e.observe(&WriteObservation::overwrite(
                    h * hour,
                    h * 8 + k,
                    7.9,
                    false,
                ));
            }
            for b in 0..100u64 {
                e.observe(&WriteObservation::fresh_write(
                    h * hour + 1,
                    30_000 + (h * 100 + b) % 5_000,
                    4.0,
                ));
            }
        }
        assert_eq!(
            e.verdict(),
            Verdict::Ransomware,
            "scores {:?}",
            e.member_scores()
        );
    }

    #[test]
    fn member_scores_exposed() {
        let e = Ensemble::new();
        let scores = e.member_scores();
        assert_eq!(scores.len(), 4);
        assert!(scores.iter().all(|(_, s)| *s == 0.0));
    }

    // Fleet fusion: one ensemble per member's stream for attribution, and
    // one over `merge_time_ordered` of all of them for the binding verdict.

    fn ensemble_over(stream: &[WriteObservation]) -> Ensemble {
        let mut e = Ensemble::new();
        e.observe_all(stream);
        e
    }

    /// Streams whose own ensemble already reaches `Ransomware`.
    fn implicated(streams: &[Vec<WriteObservation>]) -> Vec<usize> {
        (0..streams.len())
            .filter(|&s| ensemble_over(&streams[s]).verdict() == Verdict::Ransomware)
            .collect()
    }

    /// A striped campaign: round-robin one encrypting overwrite per stream,
    /// interleaved with benign traffic, thin enough that no single stream
    /// crosses its detectors' noise floors.
    fn striped_campaign(streams: usize, per_stream: usize) -> Vec<Vec<WriteObservation>> {
        let mut out = vec![Vec::new(); streams];
        let mut t = 0u64;
        for round in 0..per_stream {
            for (shard, stream) in out.iter_mut().enumerate() {
                let lpa = (round * streams + shard) as u64;
                // The attacker's one encrypting overwrite on this member...
                stream.push(WriteObservation::overwrite(t, lpa, 7.9, false));
                t += 1_000;
                // ...hidden in ordinary traffic (fresh writes don't count
                // toward the entropy window, keeping per-stream samples low).
                for k in 0..6u64 {
                    stream.push(WriteObservation::fresh_write(
                        t,
                        1_000_000 + lpa * 8 + k,
                        4.0,
                    ));
                    t += 1_000;
                }
            }
        }
        out
    }

    #[test]
    fn per_shard_benign_campaign_trips_the_fleet() {
        let shards = 4;
        // 20 encrypted overwrites per stream: under the entropy window's
        // 32-sample floor and the timing profiler's 64-page floor per
        // stream, but 80 fused — over both.
        let streams = striped_campaign(shards, 20);
        for (shard, stream) in streams.iter().enumerate() {
            assert_eq!(
                ensemble_over(stream).verdict(),
                Verdict::Benign,
                "stream {shard} must stay under its noise floors"
            );
        }
        let fused = ensemble_over(&merge_time_ordered(&streams));
        assert_eq!(
            fused.verdict(),
            Verdict::Ransomware,
            "fused score {}",
            fused.score()
        );
        assert!(implicated(&streams).is_empty());
        assert_eq!(fused.observations(), (20 * shards * 7) as u64);
    }

    #[test]
    fn concentrated_attack_is_attributed_to_its_shard() {
        let mut streams = vec![Vec::new(); 3];
        for i in 0..200u64 {
            streams[1].push(WriteObservation::overwrite(i * 1_000, i, 7.9, true));
        }
        assert_eq!(ensemble_over(&streams[0]).verdict(), Verdict::Benign);
        let fused = ensemble_over(&merge_time_ordered(&streams));
        assert_eq!(fused.verdict(), Verdict::Ransomware);
        assert_eq!(implicated(&streams), vec![1]);
    }

    #[test]
    fn benign_fleet_stays_benign() {
        let mut streams = vec![Vec::new(); 2];
        for i in 0..2_000u64 {
            streams[(i % 2) as usize].push(WriteObservation::fresh_write(i * 1_000, i, 4.0));
        }
        assert!(implicated(&streams).is_empty());
        let fused = ensemble_over(&merge_time_ordered(&streams));
        assert_eq!(fused.verdict(), Verdict::Benign);
        assert_eq!(fused.observations(), 2_000);
    }
}
