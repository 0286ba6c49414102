//! The generic synthetic workload generator.

use crate::record::{IoOp, IoRecord, PayloadKind};
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NS_PER_DAY: u64 = 86_400 * 1_000_000_000;

/// Diurnal load modulation: a seeded day-curve that scales the arrival
/// rate over simulated time, so a tenant's traffic peaks during its
/// business hours and troughs overnight.
///
/// The curve is a fundamental-plus-second-harmonic sinusoid whose harmonic
/// weights and phases are derived from the seed (every tenant's day looks
/// a little different), shifted by a per-tenant phase offset (tenants in
/// different time zones peak at different simulated hours). The multiplier
/// is a pure function of the record timestamp: attaching it to a
/// [`WorkloadBuilder`] draws **no extra RNG values**, and a builder without
/// it is byte-identical to the pre-diurnal generator (pinned by the
/// `flat_rate_regression` test).
///
/// # Examples
///
/// ```
/// use rssd_trace::synth::DiurnalLoad;
/// use rssd_trace::WorkloadBuilder;
///
/// // Two tenants on the same seeded day-curve, half a day out of phase.
/// let day = DiurnalLoad::seeded(9);
/// let night = DiurnalLoad::seeded(9).with_phase_fraction(0.5);
/// assert_ne!(day.rate_multiplier(0), night.rate_multiplier(0));
///
/// let records: Vec<_> = WorkloadBuilder::new(4096)
///     .seed(7)
///     .ops_per_second(100.0)
///     .diurnal(day)
///     .build()
///     .take(50)
///     .collect();
/// assert_eq!(records.len(), 50);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiurnalLoad {
    /// Weight of the fundamental (one cycle per day), `0.0..=0.9`.
    amplitude: f64,
    /// Weight of the second harmonic (two cycles per day).
    harmonic: f64,
    /// Phase of the fundamental in nanoseconds.
    phase_ns: u64,
    /// Phase of the second harmonic in nanoseconds.
    harmonic_phase_ns: u64,
    /// Length of one cycle in nanoseconds.
    period_ns: u64,
}

impl DiurnalLoad {
    /// Builds a day-curve from a seed: the harmonic weights and both
    /// phases are scattered from `seed`, so distinct seeds give distinct
    /// (but equally plausible) daily shapes.
    pub fn seeded(seed: u64) -> Self {
        let mix = |salt: u64| {
            let mut z = seed.wrapping_add(salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let unit = |salt: u64| (mix(salt) >> 11) as f64 / (1u64 << 53) as f64;
        DiurnalLoad {
            amplitude: 0.35 + 0.3 * unit(1),
            harmonic: 0.05 + 0.15 * unit(2),
            phase_ns: mix(3) % NS_PER_DAY,
            harmonic_phase_ns: mix(4) % NS_PER_DAY,
            period_ns: NS_PER_DAY,
        }
    }

    /// Shifts the whole curve by `fraction` of a period (`0.0..1.0`) — the
    /// per-tenant offset: tenant *t* of *n* passes `t / n` so the fleet's
    /// peaks spread around the clock.
    pub fn with_phase_fraction(mut self, fraction: f64) -> Self {
        let shift = (fraction.rem_euclid(1.0) * self.period_ns as f64) as u64;
        self.phase_ns = (self.phase_ns + shift) % self.period_ns;
        self.harmonic_phase_ns = (self.harmonic_phase_ns + shift) % self.period_ns;
        self
    }

    /// Overrides the cycle length (default: one simulated day).
    pub fn with_period_ns(mut self, period_ns: u64) -> Self {
        self.period_ns = period_ns.max(1);
        self
    }

    /// Length of one cycle in nanoseconds.
    pub fn period_ns(&self) -> u64 {
        self.period_ns
    }

    /// The instantaneous rate multiplier at simulated time `at_ns`: the
    /// configured `ops_per_second` is scaled by this value, which averages
    /// ~1.0 over a full cycle and is floored at 0.05 (the overnight trough
    /// never stops the stream entirely).
    pub fn rate_multiplier(&self, at_ns: u64) -> f64 {
        let turn = |t: u64, phase: u64, cycles: f64| {
            let pos = (t % self.period_ns) as f64 / self.period_ns as f64;
            let shift = phase as f64 / self.period_ns as f64;
            (cycles * (pos + shift) * std::f64::consts::TAU).sin()
        };
        let m = 1.0
            + self.amplitude * turn(at_ns, self.phase_ns, 1.0)
            + self.harmonic * turn(at_ns, self.harmonic_phase_ns, 2.0);
        m.max(0.05)
    }
}

/// Builder for a synthetic block workload.
///
/// # Examples
///
/// ```
/// use rssd_trace::WorkloadBuilder;
///
/// let records: Vec<_> = WorkloadBuilder::new(1024)
///     .seed(7)
///     .read_fraction(0.3)
///     .zipf_theta(0.9)
///     .ops_per_second(1000.0)
///     .build()
///     .take(100)
///     .collect();
/// assert_eq!(records.len(), 100);
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadBuilder {
    logical_pages: u64,
    seed: u64,
    read_fraction: f64,
    trim_fraction: f64,
    sequential_fraction: f64,
    zipf_theta: f64,
    working_set_fraction: f64,
    mean_request_pages: u32,
    ops_per_second: f64,
    start_ns: u64,
    payload_mix: Vec<(PayloadKind, f64)>,
    diurnal: Option<DiurnalLoad>,
}

impl WorkloadBuilder {
    /// Starts a builder for a device exporting `logical_pages` pages.
    pub fn new(logical_pages: u64) -> Self {
        WorkloadBuilder {
            logical_pages,
            seed: 0,
            read_fraction: 0.5,
            trim_fraction: 0.0,
            sequential_fraction: 0.2,
            zipf_theta: 0.9,
            working_set_fraction: 0.2,
            mean_request_pages: 2,
            ops_per_second: 2_000.0,
            start_ns: 0,
            payload_mix: vec![
                (PayloadKind::Text, 0.45),
                (PayloadKind::Binary, 0.35),
                (PayloadKind::Zero, 0.10),
                (PayloadKind::Random, 0.10),
            ],
            diurnal: None,
        }
    }

    /// RNG seed (workloads are fully deterministic given the seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fraction of operations that are reads (`0.0..=1.0`).
    pub fn read_fraction(mut self, f: f64) -> Self {
        self.read_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Fraction of operations that are trims (taken from the write share).
    pub fn trim_fraction(mut self, f: f64) -> Self {
        self.trim_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Fraction of requests that continue sequentially from the previous.
    pub fn sequential_fraction(mut self, f: f64) -> Self {
        self.sequential_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Zipf exponent of the random-access component.
    pub fn zipf_theta(mut self, theta: f64) -> Self {
        self.zipf_theta = theta;
        self
    }

    /// Fraction of the logical space forming the hot working set.
    pub fn working_set_fraction(mut self, f: f64) -> Self {
        self.working_set_fraction = f.clamp(0.001, 1.0);
        self
    }

    /// Mean request size in pages (geometric distribution, minimum 1).
    pub fn mean_request_pages(mut self, pages: u32) -> Self {
        self.mean_request_pages = pages.max(1);
        self
    }

    /// Arrival rate; inter-arrival times are exponential around this rate.
    pub fn ops_per_second(mut self, rate: f64) -> Self {
        self.ops_per_second = rate.max(1e-6);
        self
    }

    /// First record's arrival time.
    pub fn start_ns(mut self, t: u64) -> Self {
        self.start_ns = t;
        self
    }

    /// Payload class mix for writes (weights are normalized).
    pub fn payload_mix(mut self, mix: Vec<(PayloadKind, f64)>) -> Self {
        assert!(!mix.is_empty(), "payload mix must not be empty");
        self.payload_mix = mix;
        self
    }

    /// Attaches diurnal load modulation: `ops_per_second` becomes the mean
    /// rate of a seeded day-curve instead of a flat rate. Without this the
    /// stream is byte-identical to the unmodulated generator.
    pub fn diurnal(mut self, curve: DiurnalLoad) -> Self {
        self.diurnal = Some(curve);
        self
    }

    /// Builds the infinite record stream.
    pub fn build(self) -> Workload {
        let ws_pages = ((self.logical_pages as f64 * self.working_set_fraction) as u64).max(1);
        let zipf = Zipf::new(ws_pages.min(1 << 22) as usize, self.zipf_theta);
        let total_weight: f64 = self.payload_mix.iter().map(|(_, w)| w).sum();
        Workload {
            rng: StdRng::seed_from_u64(self.seed),
            zipf,
            ws_pages,
            next_ns: self.start_ns,
            prev_end_lpa: 0,
            seed_counter: self.seed.wrapping_mul(0x9E3779B97F4A7C15),
            total_weight,
            builder: self,
        }
    }
}

/// An infinite, deterministic stream of [`IoRecord`]s.
#[derive(Clone, Debug)]
pub struct Workload {
    builder: WorkloadBuilder,
    rng: StdRng,
    zipf: Zipf,
    ws_pages: u64,
    next_ns: u64,
    prev_end_lpa: u64,
    seed_counter: u64,
    total_weight: f64,
}

impl Workload {
    fn pick_payload(&mut self) -> PayloadKind {
        let mut u: f64 = self.rng.gen::<f64>() * self.total_weight;
        for &(kind, w) in &self.builder.payload_mix {
            if u < w {
                return kind;
            }
            u -= w;
        }
        self.builder.payload_mix.last().expect("non-empty").0
    }

    fn pick_lpa(&mut self, pages: u32) -> u64 {
        let max_start = self.builder.logical_pages.saturating_sub(u64::from(pages));
        if self.rng.gen::<f64>() < self.builder.sequential_fraction {
            // Continue from the previous request.
            self.prev_end_lpa.min(max_start)
        } else {
            // Zipf rank scattered over the working set via multiplicative
            // hashing so rank popularity maps to stable page addresses.
            let rank = self.zipf.sample(&mut self.rng) as u64;
            let scattered = rank.wrapping_mul(0x9E3779B97F4A7C15) % self.ws_pages;
            scattered.min(max_start)
        }
    }
}

impl Iterator for Workload {
    type Item = IoRecord;

    fn next(&mut self) -> Option<IoRecord> {
        // Exponential inter-arrival around the configured rate. The
        // diurnal multiplier is a pure function of the current timestamp —
        // no extra RNG draw — so the unmodulated path stays byte-identical
        // to the pre-diurnal generator.
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        let mut gap_s = -u.ln() / self.builder.ops_per_second;
        if let Some(curve) = &self.builder.diurnal {
            gap_s /= curve.rate_multiplier(self.next_ns);
        }
        self.next_ns += (gap_s * 1e9) as u64;

        // Geometric request size with the configured mean.
        let p = 1.0 / f64::from(self.builder.mean_request_pages);
        let mut pages = 1u32;
        while self.rng.gen::<f64>() > p && pages < 64 {
            pages += 1;
        }

        let roll: f64 = self.rng.gen();
        let op = if roll < self.builder.read_fraction {
            IoOp::Read
        } else if roll < self.builder.read_fraction + self.builder.trim_fraction {
            IoOp::Trim
        } else {
            IoOp::Write
        };

        let lpa = self.pick_lpa(pages);
        self.prev_end_lpa = lpa + u64::from(pages);
        self.seed_counter = self.seed_counter.wrapping_add(0x9E3779B97F4A7C15);

        let payload = if op == IoOp::Write {
            self.pick_payload()
        } else {
            PayloadKind::Zero
        };

        Some(IoRecord {
            at_ns: self.next_ns,
            op,
            lpa,
            pages,
            payload_seed: self.seed_counter,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(builder: WorkloadBuilder, n: usize) -> Vec<IoRecord> {
        builder.build().take(n).collect()
    }

    #[test]
    fn deterministic_given_seed() {
        let a = sample(WorkloadBuilder::new(1024).seed(5), 200);
        let b = sample(WorkloadBuilder::new(1024).seed(5), 200);
        assert_eq!(a, b);
        let c = sample(WorkloadBuilder::new(1024).seed(6), 200);
        assert_ne!(a, c);
    }

    #[test]
    fn arrival_times_are_monotone() {
        let recs = sample(WorkloadBuilder::new(1024).seed(1), 500);
        for w in recs.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns);
        }
    }

    #[test]
    fn read_fraction_respected() {
        let recs = sample(WorkloadBuilder::new(1024).seed(2).read_fraction(0.8), 5000);
        let reads = recs.iter().filter(|r| r.op == IoOp::Read).count();
        let frac = reads as f64 / recs.len() as f64;
        assert!((frac - 0.8).abs() < 0.05, "read fraction {frac}");
    }

    #[test]
    fn trims_generated_when_requested() {
        let recs = sample(
            WorkloadBuilder::new(1024)
                .seed(3)
                .read_fraction(0.2)
                .trim_fraction(0.3),
            5000,
        );
        let trims = recs.iter().filter(|r| r.op == IoOp::Trim).count();
        assert!(trims > 1000, "trims {trims}");
    }

    #[test]
    fn requests_stay_in_bounds() {
        let recs = sample(
            WorkloadBuilder::new(256).seed(4).mean_request_pages(8),
            5000,
        );
        for r in &recs {
            assert!(r.lpa + u64::from(r.pages) <= 256 + 64, "record {r:?}");
            assert!(r.lpa < 256);
        }
    }

    #[test]
    fn rate_controls_time() {
        let slow = sample(WorkloadBuilder::new(1024).seed(5).ops_per_second(10.0), 100);
        let fast = sample(
            WorkloadBuilder::new(1024).seed(5).ops_per_second(10_000.0),
            100,
        );
        assert!(slow.last().unwrap().at_ns > fast.last().unwrap().at_ns * 100);
    }

    #[test]
    fn flat_rate_regression() {
        // Golden records captured from the generator before diurnal
        // modulation existed: a builder without `.diurnal(..)` must keep
        // producing exactly this stream, timestamps included.
        let golden = [
            (IoOp::Read, 0u64, 1u32, 10615391314449192839u64, 597985u64),
            (IoOp::Write, 551, 1, 3569362060062839708, 880586),
            (IoOp::Read, 0, 4, 14970076879386038193, 2295122),
            (IoOp::Write, 0, 2, 7924047624999685062, 3040305),
            (IoOp::Read, 30, 9, 878018370613331931, 3637172),
            (IoOp::Read, 221, 2, 12278733189936530416, 8409823),
        ];
        let recs = sample(
            WorkloadBuilder::new(4096)
                .seed(42)
                .ops_per_second(500.0)
                .read_fraction(0.3)
                .trim_fraction(0.05),
            golden.len(),
        );
        for (r, g) in recs.iter().zip(&golden) {
            assert_eq!((r.op, r.lpa, r.pages, r.payload_seed, r.at_ns), *g);
        }
    }

    #[test]
    fn diurnal_modulation_changes_pacing_only() {
        let flat = sample(WorkloadBuilder::new(1024).seed(5), 500);
        let shaped = sample(
            WorkloadBuilder::new(1024)
                .seed(5)
                .diurnal(DiurnalLoad::seeded(1)),
            500,
        );
        // Same RNG sequence: op/lpa/size/payload identical, only timing moves.
        for (f, s) in flat.iter().zip(&shaped) {
            assert_eq!(
                (f.op, f.lpa, f.pages, f.payload_seed),
                (s.op, s.lpa, s.pages, s.payload_seed)
            );
        }
        assert!(flat.iter().zip(&shaped).any(|(f, s)| f.at_ns != s.at_ns));
    }

    #[test]
    fn diurnal_peaks_and_troughs_move_with_phase() {
        let curve = DiurnalLoad::seeded(7);
        let shifted = curve.with_phase_fraction(0.5);
        let day = curve.period_ns();
        let mut diverged = false;
        for hour in 0..24u64 {
            let t = hour * day / 24;
            let (a, b) = (curve.rate_multiplier(t), shifted.rate_multiplier(t));
            assert!(a >= 0.05 && b >= 0.05, "floored multipliers");
            if (a - b).abs() > 1e-9 {
                diverged = true;
            }
        }
        assert!(diverged, "a half-day phase shift must move the curve");
    }

    #[test]
    fn diurnal_mean_rate_is_close_to_flat() {
        // Over many whole cycles the modulated stream must pace near the
        // configured mean rate: the curve reshapes the day, not the volume.
        let curve = DiurnalLoad::seeded(3).with_period_ns(1_000_000_000);
        let recs = sample(
            WorkloadBuilder::new(1024)
                .seed(8)
                .ops_per_second(10_000.0)
                .diurnal(curve),
            50_000,
        );
        let span_s = recs.last().unwrap().at_ns as f64 / 1e9;
        let measured = recs.len() as f64 / span_s;
        let ratio = measured / 10_000.0;
        assert!((0.7..1.4).contains(&ratio), "mean-rate ratio {ratio}");
    }

    #[test]
    fn working_set_concentrates_accesses() {
        let recs = sample(
            WorkloadBuilder::new(100_000)
                .seed(6)
                .working_set_fraction(0.01)
                .sequential_fraction(0.0),
            5000,
        );
        let in_ws = recs.iter().filter(|r| r.lpa < 1000).count();
        assert!(
            in_ws as f64 / recs.len() as f64 > 0.9,
            "working-set hit fraction {}",
            in_ws as f64 / recs.len() as f64
        );
    }
}
