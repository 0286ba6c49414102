//! The detection ensemble: four scores from three pieces of state, and the
//! verdict they add up to.

use crate::observation::WriteObservation;
use crate::pattern::{OverwriteWindow, TrimWindow};
use crate::timing;
use crate::victims::VictimSet;

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

/// A weighted ensemble of four scores with a maximum-signal fallback: any
/// single score at full confidence forces a detection, because the attacks
/// are designed so that each evades *most* of them. One overwrite window
/// gives `entropy` and `overwrite-correlation`, the trim window
/// `trim-surge`, and the one page table `timing-profile`.
#[derive(Debug, Default)]
pub struct Ensemble {
    overwrites: OverwriteWindow,
    trims: TrimWindow,
    victims: VictimSet,
    observations: u64,
}

impl Ensemble {
    /// Builds the default ensemble.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation to every piece of state.
    pub fn observe(&mut self, obs: &WriteObservation) {
        self.overwrites.observe(obs);
        self.trims.observe(obs);
        self.victims.observe(obs);
        self.observations += 1;
    }

    /// Feeds a batch.
    pub fn observe_all<'a, I: IntoIterator<Item = &'a WriteObservation>>(&mut self, obs: I) {
        for o in obs {
            self.observe(o);
        }
    }

    /// The page table the timing profile reads (the analyzer's report).
    pub fn victims(&self) -> &VictimSet {
        &self.victims
    }

    /// Observations consumed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Each member's name and score.
    fn members(&self) -> [(&'static str, f64); 4] {
        [
            ("entropy", self.overwrites.entropy()),
            ("overwrite-correlation", self.overwrites.correlation()),
            ("trim-surge", self.trims.score()),
            ("timing-profile", timing::score(&self.victims)),
        ]
    }

    /// Combined score: weighted mean with a max-signal floor.
    pub fn score(&self) -> f64 {
        let scores = self.members().map(|(_, score)| score);
        let [entropy, correlation, trims, timing] = scores;
        let weighted = 0.30 * entropy + 0.30 * correlation + 0.20 * trims + 0.20 * timing;
        let strongest = scores.into_iter().fold(0.0f64, f64::max);
        weighted.max(if strongest >= 0.99 { 0.9 } else { 0.0 })
    }

    /// Per-member scores (for the forensic report).
    pub fn member_scores(&self) -> Vec<(&'static str, f64)> {
        self.members().to_vec()
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

/// The ensemble before it fed three pieces of state, kept as the oracle:
/// its four detectors and the rules of the page set they shared, verbatim
/// but for their names and the trait they implemented (each `impl` is
/// inherent here).
#[cfg(test)]
mod oracle {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet, VecDeque};

    #[derive(Default)]
    struct OldEntropy {
        recent: VecDeque<bool>,
        high_count: usize,
    }

    impl OldEntropy {
        const WINDOW: usize = 256;
        const MIN_SAMPLES: usize = 32;

        fn name(&self) -> &'static str {
            "entropy"
        }

        fn observe(&mut self, obs: &WriteObservation) {
            if obs.is_trim || !obs.overwrote_valid {
                return;
            }
            let high = obs.is_encrypting_overwrite();
            self.recent.push_back(high);
            if high {
                self.high_count += 1;
            }
            if self.recent.len() > Self::WINDOW && self.recent.pop_front() == Some(true) {
                self.high_count -= 1;
            }
        }

        fn score(&self) -> f64 {
            if self.recent.len() < Self::MIN_SAMPLES {
                return 0.0;
            }
            self.high_count as f64 / self.recent.len() as f64
        }
    }

    #[derive(Default)]
    struct OldCorrelator {
        recent: VecDeque<bool>,
        correlated: usize,
    }

    impl OldCorrelator {
        const WINDOW: usize = 256;
        const MIN_SAMPLES: usize = 32;

        fn name(&self) -> &'static str {
            "overwrite-correlation"
        }

        fn observe(&mut self, obs: &WriteObservation) {
            if obs.is_trim || !obs.overwrote_valid {
                return;
            }
            self.recent.push_back(obs.read_before_overwrite);
            if obs.read_before_overwrite {
                self.correlated += 1;
            }
            if self.recent.len() > Self::WINDOW && self.recent.pop_front() == Some(true) {
                self.correlated -= 1;
            }
        }

        fn score(&self) -> f64 {
            if self.recent.len() < Self::MIN_SAMPLES {
                return 0.0;
            }
            self.correlated as f64 / self.recent.len() as f64
        }
    }

    #[derive(Default)]
    struct OldTrimSurge {
        trim_times: VecDeque<u64>,
    }

    impl OldTrimSurge {
        const WINDOW_NS: u64 = 60_000_000_000;
        const SURGE_THRESHOLD: usize = 128;

        fn name(&self) -> &'static str {
            "trim-surge"
        }

        fn observe(&mut self, obs: &WriteObservation) {
            if !obs.is_trim {
                return;
            }
            self.trim_times.push_back(obs.at_ns);
            while let Some(&front) = self.trim_times.front() {
                if obs.at_ns.saturating_sub(front) > Self::WINDOW_NS {
                    self.trim_times.pop_front();
                } else {
                    break;
                }
            }
        }

        fn score(&self) -> f64 {
            (self.trim_times.len() as f64 / Self::SURGE_THRESHOLD as f64).min(1.0)
        }
    }

    /// The victim set before it kept every seen page: page → held by an
    /// encrypting overwrite (`false`: only trimmed).
    #[derive(Default)]
    struct OldVictims {
        pages: HashMap<u64, bool>,
        encrypted: usize,
    }

    impl OldVictims {
        fn observe(&mut self, obs: &WriteObservation) {
            if obs.is_trim {
                self.pages.entry(obs.lpa).or_insert(false);
            } else if obs.is_encrypting_overwrite() {
                if self.pages.insert(obs.lpa, true) != Some(true) {
                    self.encrypted += 1;
                }
            } else if self.pages.remove(&obs.lpa) == Some(true) {
                self.encrypted -= 1;
            }
        }

        fn sorted(&self) -> Vec<u64> {
            let mut lpas: Vec<u64> = self.pages.keys().copied().collect();
            lpas.sort_unstable();
            lpas
        }
    }

    /// The timing member, with its own set of every LPA written or trimmed.
    #[derive(Default)]
    struct OldTiming {
        victims: OldVictims,
        seen: HashSet<u64>,
    }

    impl OldTiming {
        const SATURATION: f64 = 0.10;
        const MIN_ENCRYPTED: usize = 64;

        fn name(&self) -> &'static str {
            "timing-profile"
        }

        fn observe(&mut self, obs: &WriteObservation) {
            self.seen.insert(obs.lpa);
            self.victims.observe(obs);
        }

        fn score(&self) -> f64 {
            let encrypted = self.victims.encrypted;
            if encrypted < Self::MIN_ENCRYPTED || self.seen.is_empty() {
                return 0.0;
            }
            let coverage = encrypted as f64 / self.seen.len() as f64;
            (coverage / Self::SATURATION).min(1.0)
        }
    }

    #[derive(Default)]
    struct OldEnsemble {
        entropy: OldEntropy,
        correlator: OldCorrelator,
        trim_surge: OldTrimSurge,
        timing: OldTiming,
    }

    impl OldEnsemble {
        fn observe(&mut self, obs: &WriteObservation) {
            self.entropy.observe(obs);
            self.correlator.observe(obs);
            self.trim_surge.observe(obs);
            self.timing.observe(obs);
        }

        fn score(&self) -> f64 {
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

        fn member_scores(&self) -> Vec<(&'static str, f64)> {
            vec![
                (self.entropy.name(), self.entropy.score()),
                (self.correlator.name(), self.correlator.score()),
                (self.trim_surge.name(), self.trim_surge.score()),
                (self.timing.name(), self.timing.score()),
            ]
        }

        fn verdict(&self) -> Verdict {
            let s = self.score();
            if s >= 0.6 {
                Verdict::Ransomware
            } else if s >= 0.3 {
                Verdict::Suspicious
            } else {
                Verdict::Benign
            }
        }
    }

    /// Entropies on and either side of `CIPHERTEXT_BITS`, and far from it.
    const ENTROPY: [f64; 5] = [4.0, 7.19, 7.2, 7.21, 7.9];
    /// Gaps that stay inside the trim window.
    const SHORT_GAP_NS: [u64; 3] = [0, 1, 1_000_000];
    /// Gaps on and either side of the 60 s trim window, and far past it.
    const LONG_GAP_NS: [u64; 5] = [
        59_999_999_999,
        60_000_000_000,
        60_000_000_001,
        61_000_000_000,
        3_600_000_000_000,
    ];

    /// Streams of a cold background of 0–1 199 fresh writes to distinct
    /// pages, then 700–1 000 fresh writes (a fifth), overwrites (half, with
    /// and without a read before) and trims over a hot space of 8–256 pages:
    /// long enough that the overwrite window slides, dense enough that the
    /// trim window saturates when long gaps are rare (a per-stream rate of
    /// 0–20 %), small enough that trims and rewrites meet encrypted, trimmed
    /// and unseen pages, and over enough seen pages that the timing profile
    /// scores below saturation.
    fn streams() -> impl Strategy<Value = Vec<WriteObservation>> {
        let step = (
            0u8..10,
            0u64..256,
            0usize..5,
            any::<bool>(),
            0u32..1000,
            0usize..5,
        );
        let shape = (0u64..1200, 8u64..257, 0u32..200);
        (shape, proptest::collection::vec(step, 700..1001)).prop_map(
            |((cold, pages, long_per_mille), steps)| {
                let background =
                    (0..cold).map(|lpa| WriteObservation::fresh_write(0, 256 + lpa, 4.0));
                let mut at = 0;
                let hot = steps
                    .into_iter()
                    .map(move |(kind, lpa, bits, read, roll, gap)| {
                        at += if roll < long_per_mille {
                            LONG_GAP_NS[gap]
                        } else {
                            SHORT_GAP_NS[gap % SHORT_GAP_NS.len()]
                        };
                        let (lpa, bits) = (lpa % pages, ENTROPY[bits]);
                        match kind {
                            0 | 1 => WriteObservation::fresh_write(at, lpa, bits),
                            2..=6 => WriteObservation::overwrite(at, lpa, bits, read),
                            _ => WriteObservation::trim(at, lpa),
                        }
                    });
                background.chain(hot).collect()
            },
        )
    }

    fn bits(scores: Vec<(&'static str, f64)>) -> Vec<(&'static str, u64)> {
        let bits = |(name, score): (_, f64)| (name, score.to_bits());
        scores.into_iter().map(bits).collect()
    }

    proptest! {
        #[test]
        fn the_ensemble_is_its_old_detectors_bit_for_bit_after_every_observation(
            stream in streams()
        ) {
            let (mut ensemble, mut old) = (Ensemble::new(), OldEnsemble::default());
            for obs in &stream {
                ensemble.observe(obs);
                old.observe(obs);
                prop_assert_eq!(bits(ensemble.member_scores()), bits(old.member_scores()));
                prop_assert_eq!(ensemble.score().to_bits(), old.score().to_bits());
                prop_assert_eq!(ensemble.verdict(), old.verdict());
                prop_assert_eq!(ensemble.victims().sorted(), old.timing.victims.sorted());
                prop_assert_eq!(ensemble.victims().encrypted(), old.timing.victims.encrypted);
                prop_assert_eq!(ensemble.victims().seen(), old.timing.seen.len());
            }
        }
    }
}
