//! Benchmark inputs, made from `--seed` and nothing else: a command script
//! and a pool of pre-synthesized pages.
//!
//! The program under test receives commands only. A script entry names its
//! payload by pool slot; the driver clones the pooled page into the
//! `IoCommand::Write` when it submits, so generating inputs never touches
//! one buffer per command (a script of 200 000 writes would otherwise
//! first-touch ~0.5 GiB and make set-up time a page-fault lottery).

use rssd_trace::{synthesize_page, IoOp, PayloadKind, TraceProfile};

/// Pages in the payload pool.
pub const POOL_PAGES: usize = 4096;
/// Page size of every device in the benchmark.
pub const PAGE_SIZE: usize = 4096;
/// The payload kinds in the order the pool lays them out.
pub const KINDS: [PayloadKind; 4] = [
    PayloadKind::Text,
    PayloadKind::Binary,
    PayloadKind::Zero,
    PayloadKind::Random,
];

/// Lower-case name of a payload kind, as it appears in metric names.
pub fn kind_name(kind: PayloadKind) -> &'static str {
    match kind {
        PayloadKind::Text => "text",
        PayloadKind::Binary => "binary",
        PayloadKind::Zero => "zero",
        PayloadKind::Random => "random",
    }
}

/// One scripted command: operation, logical page, and (for writes) the pool
/// slot whose page it carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cmd {
    /// Read, write or trim.
    pub op: IoOp,
    /// Logical page address.
    pub lpa: u64,
    /// Pool slot of the payload (writes only; 0 otherwise).
    pub slot: u16,
}

/// Which payload classes writes carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadMix {
    /// The `hm` trace profile's calibrated text/binary/zero/random mix.
    Hm,
    /// Every write is incompressible (a tenant whose data is already
    /// encrypted).
    AllRandom,
}

/// What script to generate.
#[derive(Clone, Copy, Debug)]
pub struct ScriptSpec {
    /// Commands (single pages) in the script.
    pub commands: usize,
    /// Fraction of operations that are reads.
    pub read_fraction: f64,
    /// Payload classes of the writes.
    pub mix: PayloadMix,
    /// Commands address `lpa_base .. logical_pages`; the pages below the
    /// base are left to the caller (victim files).
    pub lpa_base: u64,
    /// Logical pages the device exports.
    pub logical_pages: u64,
}

/// SplitMix64 finalizer, the workspace's usual seed whitener.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The payload pool: `POOL_PAGES` pages laid out kind by kind.
#[derive(Clone, Debug)]
pub struct Pool {
    pages: Vec<Vec<u8>>,
    /// First slot and slot count of each kind, indexed like [`KINDS`].
    ranges: [(usize, usize); 4],
}

impl Pool {
    /// Synthesizes the pool for `mix` from `seed`: a quarter of the slots
    /// per kind for [`PayloadMix::Hm`] (how often each kind is *written* is
    /// the script's business, not the pool's), all of them random otherwise.
    pub fn generate(seed: u64, mix: PayloadMix) -> Pool {
        let quarter = POOL_PAGES / 4;
        let ranges = match mix {
            PayloadMix::Hm => [0, 1, 2, 3].map(|i| (i * quarter, quarter)),
            PayloadMix::AllRandom => [(0, 0), (0, 0), (0, 0), (0, POOL_PAGES)],
        };
        let mut pages = Vec::with_capacity(POOL_PAGES);
        for (kind, (first, count)) in KINDS.iter().zip(ranges) {
            for slot in first..first + count {
                pages.push(synthesize_page(
                    *kind,
                    mix64(seed ^ ((slot as u64) << 20)),
                    PAGE_SIZE,
                ));
            }
        }
        Pool { pages, ranges }
    }

    /// The page in `slot`.
    pub fn page(&self, slot: u16) -> &[u8] {
        &self.pages[usize::from(slot)]
    }

    /// All pages of `kind`.
    pub fn pages_of(&self, kind: PayloadKind) -> &[Vec<u8>] {
        let (first, count) = self.ranges[kind_index(kind)];
        &self.pages[first..first + count]
    }

    /// The slot a write of `kind` with payload seed `payload_seed` carries.
    fn slot_for(&self, kind: PayloadKind, payload_seed: u64) -> u16 {
        let (first, count) = self.ranges[kind_index(kind)];
        assert!(count > 0, "script payload kind absent from the pool");
        (first + (mix64(payload_seed) % count as u64) as usize) as u16
    }

    /// The slot prefill writes into logical page `lpa`.
    pub fn prefill_slot(&self, lpa: u64) -> u16 {
        (mix64(lpa) % POOL_PAGES as u64) as u16
    }
}

fn kind_index(kind: PayloadKind) -> usize {
    KINDS
        .iter()
        .position(|k| *k == kind)
        .expect("all kinds listed")
}

fn hm_profile() -> TraceProfile {
    TraceProfile::by_name("hm").expect("hm is one of the twelve profiles")
}

/// The inputs of one workload run.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Commands in issue order.
    pub script: Vec<Cmd>,
    /// Payload pool the script's slots index.
    pub pool: Pool,
}

impl Inputs {
    /// Generates the script and pool for `spec` from `seed`. The same seed
    /// and spec always give the same inputs. Arrival timestamps of the
    /// underlying trace model are dropped: the benchmark's driver is a
    /// closed loop.
    pub fn generate(seed: u64, spec: &ScriptSpec) -> Inputs {
        let pool = Pool::generate(seed, spec.mix);
        let span = spec.logical_pages - spec.lpa_base;
        let mut builder = hm_profile()
            .workload_builder(span, PAGE_SIZE, seed)
            .read_fraction(spec.read_fraction);
        if spec.mix == PayloadMix::AllRandom {
            builder = builder.payload_mix(vec![(PayloadKind::Random, 1.0)]);
        }
        let mut script = Vec::with_capacity(spec.commands);
        'records: for record in builder.build() {
            for i in 0..u64::from(record.pages) {
                if script.len() == spec.commands {
                    break 'records;
                }
                let lpa = record.lpa + i;
                if lpa >= span {
                    break;
                }
                let slot = match record.op {
                    IoOp::Write => pool.slot_for(record.payload, record.payload_seed ^ i),
                    IoOp::Read | IoOp::Trim => 0,
                };
                script.push(Cmd {
                    op: record.op,
                    lpa: spec.lpa_base + lpa,
                    slot,
                });
            }
        }
        Inputs { script, pool }
    }
}
