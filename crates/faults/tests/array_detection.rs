//! Fleet-wide detection on the evidence path: a campaign striped thin
//! enough that every member's own log analyzes `Benign` is `Ransomware` in
//! the array's merged, chain-verified history (`FaultTarget::history_audit`
//! through `PostAttackAnalyzer`) — the same path every array cell of the
//! scenario matrix scores — and stays so once a member dies and is rebuilt:
//! its salvaged records keep answering for it.

use rssd_array::RssdArray;
use rssd_core::{LoopbackTarget, PostAttackAnalyzer, RssdDevice};
use rssd_detect::Verdict;
use rssd_faults::{scenario_member, FaultTarget};
use rssd_flash::SimClock;
use rssd_ssd::BlockDevice;
use rssd_trace::{synthesize_page, PayloadKind};

const SHARDS: u64 = 3;
const STRIPE_PAGES: u64 = 5;
const CORPUS_PAGES: u64 = 90;

/// A three-member array after the thin campaign: the corpus written, then
/// read → encrypt → overwrite, every page: 30 encrypting overwrites per
/// member, under the 32-sample entropy and correlation windows and the
/// timing profiler's 64-page floor; 90 across the array, over all three.
/// The closing flush ships every record to the members' stores.
fn campaign() -> RssdArray<RssdDevice<LoopbackTarget>> {
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
    for lpa in 0..CORPUS_PAGES {
        array.read_page(lpa).unwrap();
        let ciphertext = synthesize_page(PayloadKind::Random, lpa ^ 0xdead, page_size);
        array.write_page(lpa, ciphertext).unwrap();
    }
    array.flush().unwrap();
    array
}

#[test]
fn a_campaign_too_thin_for_every_member_trips_the_arrays_merged_history() {
    let mut array = campaign();
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

#[test]
fn a_dead_members_salvaged_records_keep_the_verdict_through_its_rebuild() {
    let mut array = campaign();
    let analyzer = PostAttackAnalyzer::new();
    let whole = array.history_audit();
    assert!(whole.verified, "{:?}", whole.failure);
    let dead: Vec<_> = whole
        .records
        .iter()
        .filter(|r| array.layout().locate(r.lpa).0 == 1)
        .cloned()
        .collect();
    assert!(!dead.is_empty(), "shard 1 logged its third of the campaign");

    // Everything was shipped before the death, so the salvage walk hands
    // back every record shard 1 logged: the history does not shrink.
    array.kill_shard(1).expect("shard 1 dies");
    let audit = array.history_audit();
    assert!(audit.verified, "{:?}", audit.failure);
    assert_eq!(audit.records, whole.records);
    let fused = analyzer.analyze(&audit.records, audit.verified);
    assert_eq!(
        fused.verdict,
        Verdict::Ransomware,
        "{:?}",
        fused.member_scores
    );
    assert_eq!(fused.victim_lpas, (0..CORPUS_PAGES).collect::<Vec<_>>());

    // The replacement's fresh chain joins the dead member's; it does not
    // stand in for it.
    assert_eq!(array.revive_dead_shards(None).expect("replacement fits"), 1);
    let audit = array.history_audit();
    assert!(audit.verified, "{:?}", audit.failure);
    let shard1: Vec<_> = audit
        .records
        .iter()
        .filter(|r| array.layout().locate(r.lpa).0 == 1)
        .cloned()
        .collect();
    assert!(
        shard1.len() > dead.len(),
        "the rebuild's restore writes are logged"
    );
    assert_eq!(
        shard1[..dead.len()],
        dead[..],
        "the dead member's records come first"
    );
}
