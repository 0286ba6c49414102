//! Fleet-wide detection on the evidence path: a campaign striped thin
//! enough that every member's own log analyzes `Benign` is `Ransomware` in
//! the array's merged, chain-verified history (`FaultTarget::history_audit`
//! through `PostAttackAnalyzer`) — the same path every array cell of the
//! scenario matrix scores.

use rssd_array::RssdArray;
use rssd_core::{LoopbackTarget, PostAttackAnalyzer};
use rssd_detect::Verdict;
use rssd_faults::{scenario_member, FaultTarget};
use rssd_flash::SimClock;
use rssd_ssd::BlockDevice;
use rssd_trace::{synthesize_page, PayloadKind};

const SHARDS: u64 = 3;
const STRIPE_PAGES: u64 = 5;
const CORPUS_PAGES: u64 = 90;

#[test]
fn a_campaign_too_thin_for_every_member_trips_the_arrays_merged_history() {
    let members = (0..SHARDS)
        .map(|i| scenario_member(i, false, LoopbackTarget::new()))
        .collect();
    let mut array = RssdArray::new(members, STRIPE_PAGES, SimClock::new());
    let page_size = array.page_size();
    for shard in 0..SHARDS as usize {
        let pages = (0..CORPUS_PAGES)
            .filter(|&lpa| array.layout().locate(lpa).0 == shard)
            .count();
        assert_eq!(pages, 30, "shard {shard} holds a third of the corpus");
    }

    for lpa in 0..CORPUS_PAGES {
        let page = synthesize_page(PayloadKind::Text, lpa, page_size);
        array.write_page(lpa, page).unwrap();
    }
    // Read → encrypt → overwrite, every page: 30 encrypting overwrites per
    // member, under the 32-sample entropy and correlation windows and the
    // timing profiler's 64-page floor; 90 across the array, over all three.
    for lpa in 0..CORPUS_PAGES {
        array.read_page(lpa).unwrap();
        let ciphertext = synthesize_page(PayloadKind::Random, lpa ^ 0xdead, page_size);
        array.write_page(lpa, ciphertext).unwrap();
    }
    array.flush().unwrap();

    let analyzer = PostAttackAnalyzer::new();
    for shard in 0..SHARDS as usize {
        let audit = array.shard_mut(shard).unwrap().audit_history();
        assert!(audit.verified, "shard {shard}: {:?}", audit.failure);
        let report = analyzer.analyze(&audit.records, audit.verified);
        assert_eq!(
            report.verdict,
            Verdict::Benign,
            "shard {shard} alone must stay under its noise floors: {:?}",
            report.member_scores
        );
    }

    let audit = array.history_audit();
    assert!(audit.verified, "{:?}", audit.failure);
    let fused = analyzer.analyze(&audit.records, audit.verified);
    assert_eq!(
        fused.verdict,
        Verdict::Ransomware,
        "the merged history carries the whole campaign: {:?}",
        fused.member_scores
    );
    assert_eq!(fused.victim_lpas, (0..CORPUS_PAGES).collect::<Vec<_>>());
}
