//! Defense scoring: Table 1's "Recovery" column, measured.

use crate::actors::AttackOutcome;
use crate::fs::FileTable;
use rssd_ssd::BlockDevice;

/// Table 1's recovery grades (●, ◗, ❍ in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryGrade {
    /// Every victim page recoverable (●).
    Full,
    /// Some victim pages recoverable (◗).
    Partial,
    /// Nothing recoverable (❍).
    Unrecoverable,
}

impl std::fmt::Display for RecoveryGrade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecoveryGrade::Full => "Recoverable",
            RecoveryGrade::Partial => "Partially Recoverable",
            RecoveryGrade::Unrecoverable => "Unrecoverable",
        })
    }
}

/// Measured outcome of attacking one device model.
#[derive(Clone, Debug, PartialEq)]
pub struct DefenseOutcome {
    /// Device model name.
    pub model: String,
    /// Victim pages the attack destroyed.
    pub victim_pages: u64,
    /// Victim pages whose original content the device could produce via
    /// `recover_page`.
    pub recovered_pages: u64,
    /// Recovery grade.
    pub grade: RecoveryGrade,
}

impl DefenseOutcome {
    /// Recovered fraction in `[0, 1]`.
    pub fn recovery_fraction(&self) -> f64 {
        if self.victim_pages == 0 {
            return 1.0;
        }
        self.recovered_pages as f64 / self.victim_pages as f64
    }
}

/// Asks `device` to recover every victim page of `outcome` and grades the
/// result against the corpus's known-good content.
pub fn evaluate_recovery<D: BlockDevice + ?Sized>(
    device: &mut D,
    victims: &FileTable,
    outcome: &AttackOutcome,
) -> DefenseOutcome {
    let page_size = device.page_size();
    let mut recovered = 0u64;
    let mut victim_pages = 0u64;
    for &lpa in &outcome.victim_lpas {
        let Some(want) = victims.expected(lpa, page_size) else {
            continue;
        };
        victim_pages += 1;
        if device.recover_page(lpa) == Some(want) {
            recovered += 1;
        }
    }

    let grade = if recovered == victim_pages {
        RecoveryGrade::Full
    } else if recovered > 0 {
        RecoveryGrade::Partial
    } else {
        RecoveryGrade::Unrecoverable
    };

    DefenseOutcome {
        model: device.model_name().to_string(),
        victim_pages,
        recovered_pages: recovered,
        grade,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actors::{ClassicRansomware, GcAttack, TimingAttack, TrimAttack};
    use rssd_core::{LoopbackTarget, RssdConfig, RssdDevice};
    use rssd_flash::{FlashGeometry, NandTiming, SimClock};
    use rssd_ssd::{flashguard, PlainSsd, RetentionMode, RetentionSsd};

    fn geometry() -> FlashGeometry {
        FlashGeometry::small_test()
    }

    fn flashguard() -> RetentionSsd {
        RetentionSsd::new(
            geometry(),
            NandTiming::instant(),
            SimClock::new(),
            RetentionMode::ReadThenOverwrite,
        )
    }

    fn rssd() -> RssdDevice<LoopbackTarget> {
        RssdDevice::new(
            geometry(),
            NandTiming::instant(),
            SimClock::new(),
            RssdConfig {
                segment_pages: 16,
                ..RssdConfig::default()
            },
            LoopbackTarget::new(),
        )
    }

    #[test]
    fn plain_ssd_unrecoverable_after_classic() {
        let mut d = PlainSsd::new(geometry(), NandTiming::instant(), SimClock::new());
        let table = FileTable::populate(&mut d, 4, 4, 7).unwrap();
        let outcome = ClassicRansomware::new(1).execute(&mut d, &table).unwrap();
        let result = evaluate_recovery(&mut d, &table, &outcome);
        assert_eq!(result.grade, RecoveryGrade::Unrecoverable);
        assert_eq!(result.recovery_fraction(), 0.0);
    }

    #[test]
    fn rssd_full_recovery_after_classic() {
        let mut d = rssd();
        let table = FileTable::populate(&mut d, 4, 4, 7).unwrap();
        let outcome = ClassicRansomware::new(1).execute(&mut d, &table).unwrap();
        let result = evaluate_recovery(&mut d, &table, &outcome);
        assert_eq!(result.grade, RecoveryGrade::Full, "{result:?}");
        assert_eq!(result.recovery_fraction(), 1.0);
    }

    #[test]
    fn rssd_full_recovery_after_gc_attack() {
        let mut d = rssd();
        let table = FileTable::populate(&mut d, 4, 4, 7).unwrap();
        let outcome = GcAttack::new(1, 3).execute(&mut d, &table).unwrap();
        assert!(outcome.flood_pages > 0);
        let result = evaluate_recovery(&mut d, &table, &outcome);
        assert_eq!(result.grade, RecoveryGrade::Full, "{result:?}");
    }

    #[test]
    fn rssd_full_recovery_after_trim_attack() {
        let mut d = rssd();
        let table = FileTable::populate(&mut d, 4, 4, 7).unwrap();
        let outcome = TrimAttack::new(1, false).execute(&mut d, &table).unwrap();
        let result = evaluate_recovery(&mut d, &table, &outcome);
        assert_eq!(result.grade, RecoveryGrade::Full, "{result:?}");
    }

    #[test]
    fn rssd_full_recovery_after_timing_attack() {
        let mut d = rssd();
        let table = FileTable::populate(&mut d, 4, 4, 7).unwrap();
        let attack = TimingAttack::new(1, 2, 3_600_000_000_000);
        let outcome = attack.execute(&mut d, &table, |_| Ok(())).unwrap();
        let result = evaluate_recovery(&mut d, &table, &outcome);
        assert_eq!(result.grade, RecoveryGrade::Full, "{result:?}");
    }

    #[test]
    fn flashguard_defeated_by_timing_attack() {
        let mut d = flashguard();
        let table = FileTable::populate(&mut d, 4, 4, 7).unwrap();
        let window = flashguard::SUSPECT_WINDOW_NS;
        let attack = TimingAttack::new(1, 2, window + 1);
        let outcome = attack.execute(&mut d, &table, |_| Ok(())).unwrap();
        let result = evaluate_recovery(&mut d, &table, &outcome);
        assert_eq!(result.grade, RecoveryGrade::Unrecoverable, "{result:?}");
    }

    #[test]
    fn flashguard_defeated_by_trim_attack() {
        let mut d = flashguard();
        let table = FileTable::populate(&mut d, 4, 4, 7).unwrap();
        let outcome = TrimAttack::new(1, false).execute(&mut d, &table).unwrap();
        let result = evaluate_recovery(&mut d, &table, &outcome);
        assert_eq!(result.grade, RecoveryGrade::Unrecoverable, "{result:?}");
    }

    #[test]
    fn flashguard_survives_classic_and_gc() {
        for flood in [false, true] {
            let mut d = flashguard();
            let table = FileTable::populate(&mut d, 4, 4, 7).unwrap();
            let outcome = if flood {
                GcAttack::new(1, 2).execute(&mut d, &table).unwrap()
            } else {
                ClassicRansomware::new(1).execute(&mut d, &table).unwrap()
            };
            let result = evaluate_recovery(&mut d, &table, &outcome);
            assert_eq!(
                result.grade,
                RecoveryGrade::Full,
                "flood={flood} {result:?}"
            );
        }
    }

    #[test]
    fn localssd_defeated_by_gc_attack() {
        let mut d = RetentionSsd::new(
            geometry(),
            NandTiming::instant(),
            SimClock::new(),
            RetentionMode::RetainAll,
        );
        let table = FileTable::populate(&mut d, 4, 4, 7).unwrap();
        let outcome = GcAttack::new(1, 6).execute(&mut d, &table).unwrap();
        let result = evaluate_recovery(&mut d, &table, &outcome);
        assert_ne!(
            result.grade,
            RecoveryGrade::Full,
            "GC flood must evict LocalSSD retention: {result:?}"
        );
    }

    #[test]
    fn localssd_survives_classic_without_pressure() {
        let mut d = RetentionSsd::new(
            geometry(),
            NandTiming::instant(),
            SimClock::new(),
            RetentionMode::RetainAll,
        );
        let table = FileTable::populate(&mut d, 4, 4, 7).unwrap();
        let outcome = ClassicRansomware::new(1).execute(&mut d, &table).unwrap();
        let result = evaluate_recovery(&mut d, &table, &outcome);
        assert_eq!(result.grade, RecoveryGrade::Full, "{result:?}");
    }
}
