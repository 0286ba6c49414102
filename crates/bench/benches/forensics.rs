//! **E6**: "efficient post-attack analysis; trusted evidence chain".
//!
//! Records, as the attacked history grows: how many records and sealed
//! segments the analyzer walks, that the chain verifies end to end and the
//! attack is classified; per-LPA backtracking; that a forged history is
//! detected (the *trusted* part); and — per benign trace profile, no attack
//! — what the analyzer says about a history it should find nothing in. How
//! long verification takes on the host is `benchmark/`'s `post_attack_s`,
//! not this file.

use rssd_attacks::{ClassicRansomware, FileTable};
use rssd_bench::{bench_geometry, flag, mk_rssd, publish, BenchRow};
use rssd_core::{
    AnalysisReport, AttackClass, LoopbackTarget, PostAttackAnalyzer, RemoteTarget, RssdDevice,
};
use rssd_crypto::{ChainLink, HashChain, KeyPurpose};
use rssd_flash::{NandTiming, SimClock};
use rssd_ssd::BlockDevice;
use rssd_trace::{replay, TraceProfile};

/// Benign records replayed per profile for the false-positive rows.
const BENIGN_OPS: usize = 10_000;

/// What the analyzer says today about each benign profile: (profile,
/// verdict, victim pages). The verdict is asserted `0` (benign) where it is
/// 0 today. ROADMAP 2(ii): four profiles are called ransomware (`2`) and
/// every profile's random-payload overwrites land on the victim list —
/// false positives pinned at their measured values, recorded, not fixed.
const BENIGN_TODAY: [(&str, f64, f64); 12] = [
    ("hm", 0.0, 60.0),
    ("src", 0.0, 69.0),
    ("ts", 0.0, 59.0),
    ("wdev", 0.0, 28.0),
    ("rsrch", 2.0, 70.0),
    ("stg", 2.0, 120.0),
    ("usr", 2.0, 312.0),
    ("home", 0.0, 34.0),
    ("mail", 0.0, 137.0),
    ("online", 0.0, 48.0),
    ("web", 0.0, 43.0),
    ("webusers", 2.0, 79.0),
];

fn build_attacked_device(files: usize) -> RssdDevice<LoopbackTarget> {
    let clock = SimClock::new();
    let mut d = mk_rssd(bench_geometry(), NandTiming::instant(), clock.clone());
    let table = FileTable::populate(&mut d, files, 8, 7).unwrap();
    clock.advance(1_000_000);
    ClassicRansomware::new(1).execute(&mut d, &table).unwrap();
    d.flush_log().unwrap();
    d
}

fn analyze(d: &mut RssdDevice<LoopbackTarget>) -> AnalysisReport {
    let history = d.verified_history().expect("chain verifies");
    PostAttackAnalyzer::new().analyze(&history, true)
}

fn history_row(files: usize) -> BenchRow {
    let mut d = build_attacked_device(files);
    let report = analyze(&mut d);
    assert!(report.chain_verified, "{files} files: chain");
    assert_eq!(report.attack_class, AttackClass::Classic, "{files} files");
    BenchRow::new(
        format!("{files}_files"),
        vec![
            ("records", report.records_examined as f64),
            ("segments", d.remote().stored_segments().len() as f64),
            ("chain_ok", flag(report.chain_verified)),
            (
                "classified_classic",
                flag(report.attack_class == AttackClass::Classic),
            ),
        ],
    )
}

/// Backtracking one victim page: populate write, the attack's read, the
/// attack's overwrite.
fn backtrack_row() -> BenchRow {
    let mut d = build_attacked_device(32);
    let history = d.verified_history().unwrap();
    let operations = PostAttackAnalyzer::backtrack_lpa(&history, 0).len();
    assert_eq!(operations, 3, "lpa 0: write, read, overwrite");
    BenchRow::new("backtrack_lpa0", vec![("operations", operations as f64)])
}

/// Tamper evidence: one forged record under the device's evidence-chain key
/// must fail sequence verification.
fn tamper_row() -> BenchRow {
    let key = mk_rssd(bench_geometry(), NandTiming::instant(), SimClock::new())
        .escrow_keys()
        .derive(KeyPurpose::EvidenceChain, 0);
    let mut chain = HashChain::new(&key);
    let good: Vec<Vec<u8>> = vec![b"op-a".to_vec(), b"op-b".to_vec()];
    let links: Vec<ChainLink> = good.iter().map(|r| chain.append(r)).collect();
    let forged: Vec<Vec<u8>> = vec![b"op-a".to_vec(), b"op-X".to_vec()];
    let detected = HashChain::verify_sequence(&key, &forged, &links).is_err();
    assert!(detected, "a forged record must break the chain");
    BenchRow::new("tampered_history", vec![("detected", flag(detected))])
}

/// What the analyzer makes of `profile` replayed with no attack at all.
fn false_positive_row(profile: &TraceProfile) -> BenchRow {
    let mut d = mk_rssd(bench_geometry(), NandTiming::instant(), SimClock::new());
    let records = profile
        .workload(d.logical_pages(), d.page_size(), 42)
        .take(BENIGN_OPS);
    let _ = replay(&mut d, records);
    d.flush_log().unwrap();
    let report = analyze(&mut d);
    BenchRow::new(
        format!("fp_{}", profile.name),
        vec![
            // `Verdict` declares its variants in severity order: Benign 0,
            // Suspicious 1, Ransomware 2.
            ("verdict", f64::from(report.verdict as u8)),
            ("victim_pages", report.victim_lpas.len() as f64),
        ],
    )
}

fn main() {
    let mut rows: Vec<BenchRow> = [8, 32, 64].into_iter().map(history_row).collect();
    rows.push(backtrack_row());
    rows.push(tamper_row());
    for profile in TraceProfile::all() {
        let pinned = BENIGN_TODAY.iter().find(|(name, ..)| *name == profile.name);
        let (_, verdict, victim_pages) = pinned.expect("every benign profile is pinned");
        let row = false_positive_row(&profile);
        assert_eq!(
            (row.get("verdict"), row.get("victim_pages")),
            (*verdict, *victim_pages),
            "{}: the analyzer's answer on a benign trace moved",
            row.config
        );
        rows.push(row);
    }
    publish(
        "e6_forensics",
        "E6: post-attack analysis / evidence chain (fp_* rows: benign traces, verdict 0 benign / 1 suspicious / 2 ransomware)",
        &rows,
    );
}
