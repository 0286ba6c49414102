//! Deterministic, seeded fault schedules.
//!
//! A [`FaultSchedule`] is pure data: an ordered list of [`FaultEvent`]s
//! keyed by the *operation index* at which they fire — the count of
//! commands the device under test has executed, as maintained by the
//! [`FaultInjector`](crate::FaultInjector). Because the whole simulation is
//! deterministic (seeded workloads, seeded attacks, a simulated clock), an
//! op index pins a fault to an exact point in the I/O stream: the same
//! schedule against the same workload reproduces the same torn batch, the
//! same partition window, the same mid-rebuild shard death, every run.

use crate::remote::PartitionMode;

/// One scheduled fault. `at_op` counts commands executed by the injector;
/// the event fires immediately *before* the `at_op`-th command executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Power is cut: the command at `at_op` (and everything after it) fails
    /// with `DeviceError::PowerLoss`. A cut landing inside a `submit_batch`
    /// tears the batch — the prefix before `at_op` persists, the suffix is
    /// lost. The device stays down until the harness restores power
    /// (crash + recover).
    PowerCut {
        /// Command index at which the power dies.
        at_op: u64,
    },
    /// The link to the remote store partitions in the given mode.
    PartitionStart {
        /// Command index at which the partition begins.
        at_op: u64,
        /// What happens to offloads attempted during the window.
        mode: PartitionMode,
    },
    /// The partition heals; queued offloads are replayed in order.
    PartitionHeal {
        /// Command index at which the link comes back.
        at_op: u64,
    },
    /// An array member dies (total loss of its local half).
    ShardDeath {
        /// Command index at which the shard dies.
        at_op: u64,
        /// The member to kill.
        shard: usize,
    },
}

impl FaultEvent {
    /// The operation index the event fires at.
    pub fn at_op(&self) -> u64 {
        match self {
            FaultEvent::PowerCut { at_op }
            | FaultEvent::PartitionStart { at_op, .. }
            | FaultEvent::PartitionHeal { at_op }
            | FaultEvent::ShardDeath { at_op, .. } => *at_op,
        }
    }

    fn shifted(self, base: u64) -> Self {
        match self {
            FaultEvent::PowerCut { at_op } => FaultEvent::PowerCut {
                at_op: at_op + base,
            },
            FaultEvent::PartitionStart { at_op, mode } => FaultEvent::PartitionStart {
                at_op: at_op + base,
                mode,
            },
            FaultEvent::PartitionHeal { at_op } => FaultEvent::PartitionHeal {
                at_op: at_op + base,
            },
            FaultEvent::ShardDeath { at_op, shard } => FaultEvent::ShardDeath {
                at_op: at_op + base,
                shard,
            },
        }
    }
}

/// A named, ordered fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSchedule {
    name: String,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The empty schedule: no faults, the happy path.
    pub fn none() -> Self {
        FaultSchedule {
            name: "none".to_string(),
            events: Vec::new(),
        }
    }

    /// A named schedule from explicit events (sorted by firing op).
    pub fn new(name: impl Into<String>, mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(FaultEvent::at_op);
        FaultSchedule {
            name: name.into(),
            events,
        }
    }

    /// A single power cut at `at_op`.
    pub fn power_cut(at_op: u64) -> Self {
        Self::new("power_cut", vec![FaultEvent::PowerCut { at_op }])
    }

    /// A remote partition window `[from_op, until_op)` in `mode`.
    pub fn partition(mode: PartitionMode, from_op: u64, until_op: u64) -> Self {
        let name = match mode {
            PartitionMode::Refuse => "partition_refuse",
            PartitionMode::QueueForReplay => "partition_queue",
            PartitionMode::DropSilently => "partition_drop",
        };
        Self::new(
            name,
            vec![
                FaultEvent::PartitionStart {
                    at_op: from_op,
                    mode,
                },
                FaultEvent::PartitionHeal { at_op: until_op },
            ],
        )
    }

    /// One shard dies at `at_op`.
    pub fn shard_death(shard: usize, at_op: u64) -> Self {
        Self::new("shard_death", vec![FaultEvent::ShardDeath { at_op, shard }])
    }

    /// Two shards die, the second while the first is expected to be mid-
    /// rebuild (the harness rebuilds reactively, so any `at_op2 > at_op1`
    /// with recovery traffic in between exercises the double-failure path).
    pub fn double_fault(shard1: usize, at_op1: u64, shard2: usize, at_op2: u64) -> Self {
        Self::new(
            "double_fault",
            vec![
                FaultEvent::ShardDeath {
                    at_op: at_op1,
                    shard: shard1,
                },
                FaultEvent::ShardDeath {
                    at_op: at_op2,
                    shard: shard2,
                },
            ],
        )
    }

    /// A reproducible pseudo-random schedule over a horizon of
    /// `horizon_ops` commands against a device of `shards` members (use 1
    /// for a bare device — shard deaths are then never generated). The same
    /// seed always yields the same schedule.
    pub fn seeded(seed: u64, horizon_ops: u64, shards: usize) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut events = Vec::new();
        let horizon = horizon_ops.max(4);
        let pick = |state: &mut u64, bound: u64| splitmix(state) % bound;

        if pick(&mut state, 2) == 0 {
            events.push(FaultEvent::PowerCut {
                at_op: pick(&mut state, horizon),
            });
        }
        if pick(&mut state, 2) == 0 {
            let from = pick(&mut state, horizon - 2);
            let until = from + 1 + pick(&mut state, horizon - from - 1);
            let mode = match pick(&mut state, 3) {
                0 => PartitionMode::Refuse,
                1 => PartitionMode::QueueForReplay,
                _ => PartitionMode::DropSilently,
            };
            events.push(FaultEvent::PartitionStart { at_op: from, mode });
            events.push(FaultEvent::PartitionHeal { at_op: until });
        }
        if shards > 1 && pick(&mut state, 2) == 0 {
            events.push(FaultEvent::ShardDeath {
                at_op: pick(&mut state, horizon),
                shard: (pick(&mut state, shards as u64)) as usize,
            });
        }
        Self::new(format!("seeded_{seed}"), events)
    }

    /// The schedule's name (the fault axis of a scenario cell id).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The events, sorted by firing op.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` when the schedule contains no events.
    pub fn is_none(&self) -> bool {
        self.events.is_empty()
    }

    /// The same schedule shifted `base` operations later — how a phase-
    /// relative schedule ("cut 40 ops into the attack") is anchored to the
    /// absolute op counter once the earlier phases' op count is known.
    #[must_use]
    pub fn offset(&self, base: u64) -> Self {
        FaultSchedule {
            name: self.name.clone(),
            events: self.events.iter().map(|e| e.shifted(base)).collect(),
        }
    }
}

/// SplitMix64 — a tiny, dependency-free, reproducible generator. Not used
/// for anything cryptographic; only to scatter fault points.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_constructors_sort_events() {
        let s = FaultSchedule::new(
            "x",
            vec![
                FaultEvent::PartitionHeal { at_op: 9 },
                FaultEvent::PowerCut { at_op: 3 },
            ],
        );
        assert_eq!(s.events()[0].at_op(), 3);
        assert_eq!(s.events()[1].at_op(), 9);
    }

    #[test]
    fn none_is_empty() {
        assert!(FaultSchedule::none().is_none());
        assert!(!FaultSchedule::power_cut(5).is_none());
    }

    #[test]
    fn seeded_is_reproducible_and_seed_sensitive() {
        let a = FaultSchedule::seeded(42, 1000, 4);
        let b = FaultSchedule::seeded(42, 1000, 4);
        assert_eq!(a, b);
        let differs = (0..20u64).any(|s| FaultSchedule::seeded(s, 1000, 4) != a);
        assert!(differs, "some seed must yield a different schedule");
    }

    #[test]
    fn seeded_never_kills_shards_on_bare_devices() {
        for seed in 0..50u64 {
            let s = FaultSchedule::seeded(seed, 500, 1);
            assert!(
                !s.events()
                    .iter()
                    .any(|e| matches!(e, FaultEvent::ShardDeath { .. })),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn offset_shifts_every_event() {
        let s = FaultSchedule::partition(PartitionMode::QueueForReplay, 10, 20).offset(100);
        assert_eq!(s.events()[0].at_op(), 110);
        assert_eq!(s.events()[1].at_op(), 120);
        assert_eq!(s.name(), "partition_queue");
    }
}
