//! **E8 — Figure 1 datapath**: NVMe-oE offload microbenchmarks.
//!
//! Records segment-transfer goodput vs. segment size on datacenter and WAN
//! links (with and without loss), and the achieved compression ratio per
//! payload class. Asserted: goodput on the clean 10 GbE link rises with
//! segment size (per-segment costs amortize), and ciphertext-like (random)
//! pages leave at ≈ 1.0× — the offload never inflates what it cannot
//! compress. What compress + seal cost the host per page is `benchmark/`'s
//! `compress.*` / `crypto.*` layers, not this file.

use rssd_bench::{publish, BenchRow};
use rssd_net::{LinkConfig, NvmeOeEndpoint};
use rssd_trace::{synthesize_page, PayloadKind};

fn goodput_gbps(link: LinkConfig, segment_bytes: usize) -> f64 {
    let mut fabric = NvmeOeEndpoint::new(link);
    let payload = bytes::Bytes::from(vec![0xA5u8; segment_bytes]);
    let (done_ns, _) = fabric.transfer_segment(0, payload, 0);
    segment_bytes as f64 / done_ns as f64 // bytes/ns == GB/s
}

/// Raw over packed bytes for 256 synthesized 4 KiB pages of `kind`.
fn compression_ratio(kind: PayloadKind) -> f64 {
    let (mut raw, mut packed) = (0usize, 0usize);
    for i in 0..256u64 {
        let page = synthesize_page(kind, i, 4096);
        raw += page.len();
        packed += rssd_compress::compress_adaptive(&page).len();
    }
    raw as f64 / packed as f64
}

fn main() {
    let mut rows: Vec<BenchRow> = [4usize, 64, 1024, 8192]
        .into_iter()
        .map(|kib| {
            let goodput = |link| goodput_gbps(link, kib * 1024);
            BenchRow::new(
                format!("{kib}_kib"),
                vec![
                    ("dc_10g_gbps", goodput(LinkConfig::datacenter_10g())),
                    ("wan_gbps", goodput(LinkConfig::wan_cloud())),
                    ("dc_10g_loss2_gbps", goodput(LinkConfig::lossy(50))),
                ],
            )
        })
        .collect();
    for pair in rows.windows(2) {
        let (small, large) = (&pair[0], &pair[1]);
        assert!(
            large.get("dc_10g_gbps") > small.get("dc_10g_gbps"),
            "10 GbE goodput must rise with segment size: {} → {}",
            small.config,
            large.config
        );
    }

    for (label, kind) in [
        ("zero", PayloadKind::Zero),
        ("text", PayloadKind::Text),
        ("binary", PayloadKind::Binary),
        ("random", PayloadKind::Random),
    ] {
        let ratio = compression_ratio(kind);
        if kind == PayloadKind::Random {
            assert!(
                (ratio - 1.0).abs() < 0.01,
                "ciphertext-like pages must leave at ≈ 1.0×, got {ratio:.4}×"
            );
        }
        rows.push(BenchRow::new(label, vec![("compression_ratio", ratio)]));
    }
    publish(
        "e8_offload_path",
        "E8: NVMe-oE offload path — segment goodput (GB/s), compression ratio by payload class",
        &rows,
    );
}
