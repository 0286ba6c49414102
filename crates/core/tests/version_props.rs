//! One model, three answerers: which retained version of a page was valid
//! at a cut-off, as a live device, a harvest of its store and a reference
//! model say it — over histories where operations share nanoseconds.

use proptest::prelude::*;
use rssd_core::{LoopbackTarget, RebuildImage, RssdConfig, RssdDevice};
use rssd_flash::{FlashGeometry, NandTiming, SimClock};
use rssd_ssd::BlockDevice;

const LPAS: u64 = 8;

#[derive(Clone, Copy, Debug)]
enum Op {
    Write,
    Trim,
    Read,
}

/// The reference: per page, every version an overwrite or trim destroyed,
/// as `(written_at, invalidated_at, fill byte)` in the order it happened.
#[derive(Default)]
struct Model {
    retained: [Vec<(u64, u64, u8)>; LPAS as usize],
    current: [Option<(u64, u8)>; LPAS as usize],
}

impl Model {
    fn apply(&mut self, op: Op, lpa: u64, at_ns: u64, fill: u8) {
        let current = &mut self.current[lpa as usize];
        let next = match op {
            Op::Write => Some((at_ns, fill)),
            Op::Trim => None,
            Op::Read => return,
        };
        if let Some((written_at, old)) = std::mem::replace(current, next) {
            self.retained[lpa as usize].push((written_at, at_ns, old));
        }
    }

    /// The version whose lifetime contains `at_ns`, ends included; where two
    /// meet in that nanosecond, the older.
    fn version_at(&self, lpa: u64, at_ns: u64) -> Option<u8> {
        let mut versions = self.retained[lpa as usize].iter();
        let version =
            versions.find(|(written, invalidated, _)| (*written..=*invalidated).contains(&at_ns));
        version.map(|(_, _, fill)| *fill)
    }

    fn newest(&self, lpa: u64) -> Option<u8> {
        self.retained[lpa as usize].last().map(|(_, _, fill)| *fill)
    }
}

/// The fill byte of a recovered page (so a mismatch prints two bytes, not
/// two pages).
fn fill(page: Option<impl AsRef<[u8]>>) -> Option<u8> {
    page.map(|page| {
        let page = page.as_ref();
        assert!(page.len() == 4096 && page.iter().all(|b| *b == page[0]));
        page[0]
    })
}

fn arb_ops() -> impl Strategy<Value = Vec<(Op, u64, u64)>> {
    let op = prop_oneof![
        3 => Just(Op::Write),
        1 => Just(Op::Trim),
        1 => Just(Op::Read),
    ];
    let advance = prop_oneof![Just(0u64), Just(1), Just(1_000)];
    proptest::collection::vec((op, 0..LPAS, advance), 1..48)
}

proptest! {
    #[test]
    fn device_harvest_and_model_agree_on_every_cutoff(ops in arb_ops()) {
        let clock = SimClock::new();
        let mut d = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            clock.clone(),
            RssdConfig { segment_pages: 3, ..RssdConfig::default() },
            LoopbackTarget::new(),
        );
        let mut model = Model::default();
        let mut cuts = Vec::new();
        for (i, &(op, lpa, advance)) in ops.iter().enumerate() {
            clock.advance(advance);
            let at_ns = clock.now_ns();
            let fill = i as u8 + 1;
            match op {
                Op::Write => d.write_page(lpa, vec![fill; 4096]).unwrap(),
                Op::Trim => d.trim_page(lpa).unwrap(),
                Op::Read => drop(d.read_page(lpa).unwrap()),
            }
            prop_assert_eq!(clock.now_ns(), at_ns, "instant NAND: the op is stamped at its start");
            model.apply(op, lpa, at_ns, fill);
            cuts.extend([at_ns.saturating_sub(1), at_ns, at_ns + 1]);
        }
        cuts.sort_unstable();
        cuts.dedup();

        // Part of the history sealed, the tail still pending.
        for lpa in 0..LPAS {
            for &cut in &cuts {
                prop_assert_eq!(
                    fill(d.recover_page_before(lpa, cut)), model.version_at(lpa, cut),
                    "pending tail: lpa {} cut {}", lpa, cut
                );
            }
            prop_assert_eq!(fill(d.recover_newest(lpa)), model.newest(lpa));
        }

        // All of it sealed and stored; then the index the crashed controller
        // lost, rebuilt by the store walk.
        d.flush_log().unwrap();
        let keys = d.escrow_keys();
        for rebuilt in [false, true] {
            if rebuilt {
                let _ = d.crash();
                let _ = d.recover().unwrap();
            }
            let image = RebuildImage::harvest(&keys, d.remote_mut()).unwrap();
            for lpa in 0..LPAS {
                for &cut in &cuts {
                    let expected = model.version_at(lpa, cut);
                    prop_assert_eq!(
                        fill(image.version_before(lpa, cut)), expected,
                        "image: lpa {} cut {} rebuilt {}", lpa, cut, rebuilt
                    );
                    prop_assert_eq!(
                        fill(d.recover_page_before(lpa, cut)), expected,
                        "device: lpa {} cut {} rebuilt {}", lpa, cut, rebuilt
                    );
                }
                prop_assert_eq!(fill(image.newest(lpa)), model.newest(lpa));
                prop_assert_eq!(fill(d.recover_newest(lpa)), model.newest(lpa));
            }
        }
    }
}
