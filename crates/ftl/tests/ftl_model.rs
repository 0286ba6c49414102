//! Model-based property tests for the FTL: whatever GC does underneath,
//! the logical view must match a simple map, stale accounting must balance,
//! pinning must be an absolute barrier for GC, and no FTL operation moves
//! the simulated clock.

use proptest::prelude::*;
use rssd_flash::{FlashGeometry, NandArray, NandTiming, OpTicket, SimClock};
use rssd_ftl::{Ftl, FtlConfig, FtlError, InvalidateCause};
use std::collections::HashMap;

fn mk_ftl() -> Ftl {
    let nand = NandArray::with_clock(
        FlashGeometry::small_test(),
        NandTiming::instant(),
        SimClock::new(),
    );
    Ftl::new(nand, FtlConfig::default())
}

/// Writes `lpa` and waits for its program, as a device model does.
fn write(ftl: &mut Ftl, lpa: u64, data: Vec<u8>) -> Result<(), FtlError> {
    let ticket = ftl.write_async(lpa, data)?;
    ftl.clock().advance_to(ticket.done_ns);
    Ok(())
}

/// Reads `lpa` and waits for its data, as a device model does.
fn read(ftl: &mut Ftl, lpa: u64) -> Option<Vec<u8>> {
    let (data, ticket) = ftl.read_async(lpa).unwrap();
    ftl.clock().advance_to(ticket.done_ns);
    data
}

#[derive(Clone, Debug)]
enum Op {
    Write(u64, u8),
    Trim(u64),
}

fn ops(lpas: u64) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0..lpas, any::<u8>()).prop_map(|(l, b)| Op::Write(l, b)),
            1 => (0..lpas).prop_map(Op::Trim),
        ],
        1..400,
    )
}

/// Every FTL entry point a device model drives.
#[derive(Clone, Debug)]
enum Dispatch {
    Write(u64, u8),
    Read(u64),
    Trim(u64),
    ReadPhysical(u64),
    ReadPhysicalOffload(u64),
    ReadPhysicalBackground(u64),
    Pin(u64),
    Unpin,
    SpillAppend(usize),
    SpillScan,
    SpillReset,
    BackgroundGc,
}

fn dispatches(lpas: u64) -> impl Strategy<Value = Vec<Dispatch>> {
    proptest::collection::vec(
        prop_oneof![
            6 => (0..lpas, any::<u8>()).prop_map(|(l, b)| Dispatch::Write(l, b)),
            2 => (0..lpas).prop_map(Dispatch::Read),
            1 => (0..lpas).prop_map(Dispatch::Trim),
            1 => (0..lpas).prop_map(Dispatch::ReadPhysical),
            1 => (0..lpas).prop_map(Dispatch::ReadPhysicalOffload),
            1 => (0..lpas).prop_map(Dispatch::ReadPhysicalBackground),
            1 => (0..lpas).prop_map(Dispatch::Pin),
            1 => Just(Dispatch::Unpin),
            1 => (0usize..10_000).prop_map(Dispatch::SpillAppend),
            1 => Just(Dispatch::SpillScan),
            1 => Just(Dispatch::SpillReset),
            1 => Just(Dispatch::BackgroundGc),
        ],
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn logical_view_matches_model(ops in ops(32)) {
        let mut ftl = mk_ftl();
        let mut model: HashMap<u64, Option<u8>> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Write(lpa, b) => {
                    write(&mut ftl, lpa, vec![b; 4096]).unwrap();
                    model.insert(lpa, Some(b));
                }
                Op::Trim(lpa) => {
                    ftl.trim(lpa).unwrap();
                    model.insert(lpa, None);
                }
            }
        }
        ftl.drain_stale_events();
        for (lpa, expected) in &model {
            match expected {
                Some(b) => prop_assert_eq!(read(&mut ftl, *lpa), Some(vec![*b; 4096])),
                None => prop_assert_eq!(read(&mut ftl, *lpa), None),
            }
        }
    }

    #[test]
    fn stale_events_balance_invalidations(ops in ops(24)) {
        let mut ftl = mk_ftl();
        let mut expected_events = 0u64;
        let mut mapped: HashMap<u64, bool> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Write(lpa, b) => {
                    if mapped.get(&lpa).copied().unwrap_or(false) {
                        expected_events += 1;
                    }
                    write(&mut ftl, lpa, vec![b; 4096]).unwrap();
                    mapped.insert(lpa, true);
                }
                Op::Trim(lpa) => {
                    if mapped.get(&lpa).copied().unwrap_or(false) {
                        expected_events += 1;
                    }
                    ftl.trim(lpa).unwrap();
                    mapped.insert(lpa, false);
                }
            }
        }
        let host_events = ftl
            .drain_stale_events()
            .into_iter()
            .filter(|e| e.cause != InvalidateCause::GcMigration)
            .count() as u64;
        prop_assert_eq!(host_events, expected_events);
    }

    #[test]
    fn pinned_pages_survive_arbitrary_churn(churn in ops(40)) {
        let mut ftl = mk_ftl();
        // Create a victim version and pin it.
        write(&mut ftl, 63, vec![0xAB; 4096]).unwrap();
        write(&mut ftl, 63, vec![0xCD; 4096]).unwrap();
        let event = ftl
            .drain_stale_events()
            .into_iter()
            .find(|e| e.lpa == 63)
            .expect("overwrite event");
        ftl.pin_page(event.ppa);

        // Arbitrary churn, tolerating capacity stalls.
        for op in &churn {
            let result = match *op {
                Op::Write(lpa, b) => write(&mut ftl, lpa % 60, vec![b; 4096]),
                Op::Trim(lpa) => ftl.trim(lpa % 60),
            };
            match result {
                Ok(()) | Err(FtlError::DeviceFull) => {}
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
            ftl.drain_stale_events();
        }

        // The pinned stale version is physically intact.
        let (data, oob) = ftl.read_physical_background(event.ppa).unwrap();
        prop_assert_eq!(data, vec![0xAB; 4096]);
        prop_assert_eq!(oob.lpa, 63);
    }

    #[test]
    fn waf_at_least_one_and_counts_consistent(ops in ops(24)) {
        let mut ftl = mk_ftl();
        for op in &ops {
            match *op {
                Op::Write(lpa, b) => write(&mut ftl, lpa, vec![b; 4096]).unwrap(),
                Op::Trim(lpa) => ftl.trim(lpa).unwrap(),
            }
        }
        prop_assert!(ftl.stats().write_amplification() >= 1.0);
        // NAND programs = host writes + migrations.
        prop_assert_eq!(
            ftl.nand_stats().programs(),
            ftl.stats().host_pages_written + ftl.stats().gc_pages_migrated
        );
        // Valid pages never exceed logical pages.
        prop_assert!(ftl.total_valid_pages() <= ftl.logical_pages());
    }

    /// The clock rule below the device seam: on MLC timing and a clock that
    /// starts mid-run, no sequence of FTL operations moves the clock, and
    /// every ticket an operation returns ends at or after the dispatch time.
    #[test]
    fn no_ftl_operation_moves_the_clock(script in dispatches(48)) {
        const START_NS: u64 = 1_000_000_007;
        let clock = SimClock::starting_at(START_NS);
        let nand = NandArray::with_clock(FlashGeometry::small_test(), NandTiming::mlc_default(), clock.clone());
        let mut ftl = Ftl::new(nand, FtlConfig { spill_blocks: 2, ..FtlConfig::default() });
        let mut pinned = Vec::new();
        for op in &script {
            let ticket: Option<OpTicket> = match *op {
                Dispatch::Write(lpa, b) => match ftl.write_async(lpa, vec![b; 4096]) {
                    Ok(ticket) => Some(ticket),
                    Err(FtlError::DeviceFull) => None,
                    Err(e) => return Err(TestCaseError::fail(format!("write: {e}"))),
                },
                Dispatch::Read(lpa) => Some(ftl.read_async(lpa).unwrap().1),
                Dispatch::Trim(lpa) => {
                    ftl.trim(lpa).unwrap();
                    None
                }
                Dispatch::ReadPhysical(lpa) => {
                    ftl.lookup(lpa).map(|ppa| ftl.read_physical(ppa).unwrap().2)
                }
                Dispatch::ReadPhysicalOffload(lpa) => {
                    if let Some(ppa) = ftl.lookup(lpa) {
                        let _ = ftl.read_physical_offload(ppa).unwrap();
                    }
                    None
                }
                Dispatch::ReadPhysicalBackground(lpa) => {
                    if let Some(ppa) = ftl.lookup(lpa) {
                        let _ = ftl.read_physical_background(ppa).unwrap();
                    }
                    None
                }
                Dispatch::Pin(lpa) => {
                    if let Some(ppa) = ftl.lookup(lpa) {
                        ftl.pin_page(ppa);
                        pinned.push(ppa);
                    }
                    None
                }
                Dispatch::Unpin => {
                    if let Some(ppa) = pinned.pop() {
                        ftl.unpin_page(ppa);
                    }
                    None
                }
                Dispatch::SpillAppend(len) => {
                    match ftl.spill_append(&vec![0x5A; len]) {
                        Ok(()) | Err(FtlError::DeviceFull) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("spill: {e}"))),
                    }
                    None
                }
                Dispatch::SpillScan => {
                    let _ = ftl.spill_scan().unwrap();
                    None
                }
                Dispatch::SpillReset => {
                    ftl.spill_reset().unwrap();
                    None
                }
                Dispatch::BackgroundGc => {
                    let _ = ftl.run_background_gc();
                    None
                }
            };
            ftl.drain_stale_events();
            prop_assert_eq!(clock.now_ns(), START_NS, "{:?} moved the clock", op);
            if let Some(ticket) = ticket {
                prop_assert!(ticket.done_ns >= START_NS, "{:?} ended at {:?}", op, ticket);
            }
        }
    }
}
