//! Shared helpers for the RSSD benchmark harness.
//!
//! One bench target per paper artifact (see DESIGN.md §3 and
//! EXPERIMENTS.md), every one the same plain `main`: **measure** a
//! `Vec<BenchRow>` off the simulated clock, **assert** the claim the rows
//! back, then [`publish`] — which prints the rows as an aligned table and
//! writes the same rows to `BENCH_<name>.json`. The table and the file
//! cannot disagree, no host clock is read, and CI gates every file's bytes.

use rssd_array::RssdArray;
use rssd_core::{LoopbackTarget, RssdConfig, RssdDevice};
use rssd_flash::{FlashGeometry, NandTiming, SimClock};
use std::path::{Path, PathBuf};

/// Geometry used by most benches: 32 MiB, 4 KiB pages (scaled-down stand-in
/// for the 256 GiB device in the paper; see DESIGN.md on scaling).
pub fn bench_geometry() -> FlashGeometry {
    FlashGeometry::with_capacity(32 * 1024 * 1024)
}

/// An RSSD over an in-process remote target on `clock`.
pub fn mk_rssd(
    geometry: FlashGeometry,
    timing: NandTiming,
    clock: SimClock,
) -> RssdDevice<LoopbackTarget> {
    RssdDevice::new(
        geometry,
        timing,
        clock,
        RssdConfig {
            segment_pages: 32,
            ..RssdConfig::default()
        },
        LoopbackTarget::new(),
    )
}

/// A striped array of `shards` RSSD members, each on its **own** clock
/// (the parallel time model) over its own loopback remote, striping
/// `stripe_pages` consecutive pages.
pub fn mk_array(
    shards: usize,
    shard_geometry: FlashGeometry,
    timing: NandTiming,
    stripe_pages: u64,
) -> RssdArray<RssdDevice<LoopbackTarget>> {
    let members = (0..shards as u64)
        .map(|i| {
            RssdDevice::new(
                shard_geometry,
                timing,
                SimClock::new(),
                RssdConfig {
                    device_id: i,
                    segment_pages: 32,
                    ..RssdConfig::default()
                },
                LoopbackTarget::new(),
            )
        })
        .collect();
    RssdArray::new(members, stripe_pages, SimClock::new())
}

/// One configuration's summary metrics in a bench's machine-readable
/// output.
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// Configuration label, e.g. `"rssd_qd32"` or `"4_shards"`.
    pub config: String,
    /// Metric name → value pairs, emitted in order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl BenchRow {
    /// A row labelled `config` carrying `metrics` in order.
    pub fn new(config: impl Into<String>, metrics: Vec<(&'static str, f64)>) -> Self {
        BenchRow {
            config: config.into(),
            metrics,
        }
    }

    /// The value of `metric` in this row.
    ///
    /// # Panics
    ///
    /// When the row has no such metric — a bench asserting on a column it
    /// never measured is a bug in the bench.
    pub fn get(&self, metric: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(name, _)| *name == metric)
            .unwrap_or_else(|| panic!("row {} has no metric {metric}", self.config))
            .1
    }
}

/// The value of `metric` in the row labelled `config`.
///
/// # Panics
///
/// When no row carries that label, or the row lacks the metric.
pub fn cell(rows: &[BenchRow], config: &str, metric: &str) -> f64 {
    let row = rows.iter().find(|row| row.config == config);
    row.unwrap_or_else(|| panic!("no row {config}")).get(metric)
}

/// A yes/no cell as the number a [`BenchRow`] carries: 1.0 or 0.0.
pub fn flag(yes: bool) -> f64 {
    f64::from(u8::from(yes))
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn json_number(v: f64) -> String {
    // JSON has no NaN/Infinity; clamp degenerate metrics to null.
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// [`json_number`] as a table cell: the same six decimals, trailing zeros
/// dropped.
fn table_number(v: f64) -> String {
    let text = json_number(v);
    if text.contains('.') {
        text.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        text
    }
}

/// Renders `rows` as aligned text. Consecutive rows whose metric names agree
/// position by position share one block under one header (a row may stop
/// short of the block's widest row; its missing cells print `-`); a row
/// that names different metrics starts a new block.
pub fn render_table(rows: &[BenchRow]) -> String {
    let mut out = String::new();
    let mut rest = rows;
    while let Some(first) = rest.first() {
        let mut header: Vec<&str> = first.metrics.iter().map(|(name, _)| *name).collect();
        let mut len = 0;
        for row in rest {
            let names = row.metrics.iter().map(|(name, _)| *name);
            if !names.clone().zip(&header).all(|(a, b)| a == *b) {
                break;
            }
            if row.metrics.len() > header.len() {
                header = names.collect();
            }
            len += 1;
        }
        let (block, tail) = rest.split_at(len);
        rest = tail;

        let mut lines: Vec<Vec<String>> = vec![std::iter::once("config")
            .chain(header.iter().copied())
            .map(str::to_string)
            .collect()];
        for row in block {
            let mut cells = vec![row.config.clone()];
            cells.extend(row.metrics.iter().map(|(_, v)| table_number(*v)));
            cells.resize(header.len() + 1, "-".to_string());
            lines.push(cells);
        }
        let widths: Vec<usize> = (0..=header.len())
            .map(|col| {
                lines
                    .iter()
                    .map(|l| l[col].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        for cells in &lines {
            let mut line = format!("{:<w$}", cells[0], w = widths[0]);
            for (cell, w) in cells.iter().zip(&widths).skip(1) {
                line.push_str(&format!("  {cell:>w$}"));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        if !rest.is_empty() {
            out.push('\n');
        }
    }
    out
}

/// Renders a bench's summary rows (p50/p99/throughput per configuration)
/// as the body of its `BENCH_<name>.json`. Every value comes off the
/// simulated clock, so the text is a pure function of the tree — CI gates
/// the checked-in files byte for byte.
pub fn render_bench_json(name: &str, rows: &[BenchRow]) -> String {
    let rows = rows
        .iter()
        .map(|row| {
            let metrics = row
                .metrics
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", json_escape(k), json_number(*v)))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "    {{\"config\": \"{}\", {metrics}}}",
                json_escape(&row.config)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"bench\": \"{}\",\n  \"rows\": [\n{rows}\n  ]\n}}\n",
        json_escape(name)
    )
}

/// The workspace root of the checkout this process was launched from: the
/// nearest ancestor of the running package's manifest directory that holds
/// a `Cargo.lock`. Resolved when the bench runs (cargo exports
/// `CARGO_MANIFEST_DIR` to `cargo bench`/`test`/`run` processes), not when
/// it was compiled — a binary built in one checkout and run from a copy of
/// it must write the copy's files, not the original's.
fn workspace_root() -> std::io::Result<PathBuf> {
    let start = match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::current_dir()?,
    };
    start
        .ancestors()
        .find(|dir| dir.join("Cargo.lock").is_file())
        .map(Path::to_path_buf)
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no Cargo.lock at or above {}", start.display()),
            )
        })
}

/// Writes [`render_bench_json`]'s text to `BENCH_<name>.json` at the
/// workspace root, so the simulated-time record is data tracked across PRs
/// instead of scraped from stdout. Returns the path written.
///
/// # Errors
///
/// Propagates I/O errors from locating the workspace root or writing the
/// file.
pub fn write_bench_json(name: &str, rows: &[BenchRow]) -> std::io::Result<PathBuf> {
    let path = workspace_root()?.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, render_bench_json(name, rows))?;
    Ok(path)
}

/// The one way a bench reports: prints `rows` under `title` as
/// [`render_table`] lays them out, then writes the same rows to
/// `BENCH_<name>.json`. Call it after the bench's claims are asserted, so a
/// violated claim cannot be re-baselined into the file.
///
/// # Panics
///
/// When the file cannot be written: a reproduction record that silently
/// failed to record would pass the byte gate on stale bytes.
pub fn publish(name: &str, title: &str, rows: &[BenchRow]) {
    println!("\n=== {title} ===");
    print!("{}", render_table(rows));
    let path = write_bench_json(name, rows)
        .unwrap_or_else(|e| panic!("could not write BENCH_{name}.json: {e}"));
    println!("(rows written to {})", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rssd_ssd::BlockDevice;

    #[test]
    fn constructors_build_working_devices() {
        let g = bench_geometry();
        assert_eq!(g.capacity_bytes(), 32 * 1024 * 1024);
        let mut rssd = mk_rssd(g, NandTiming::instant(), SimClock::new());
        rssd.write_page(0, vec![1; 4096]).unwrap();
        let mut arr = mk_array(2, FlashGeometry::small_test(), NandTiming::instant(), 4);
        arr.write_page(0, vec![1; 4096]).unwrap();
        assert_eq!(arr.shard_count(), 2);
    }

    #[test]
    fn bench_json_is_written_and_well_formed() {
        let rows = vec![
            BenchRow {
                config: "a_qd1".to_string(),
                metrics: vec![("p50_us", 1.5), ("p99_us", 9.0), ("kiops", 120.0)],
            },
            BenchRow {
                config: "b_qd8".to_string(),
                metrics: vec![("p50_us", 2.5), ("p99_us", f64::NAN), ("kiops", 300.0)],
            },
        ];
        let body = render_bench_json("selftest", &rows);
        assert!(body.contains("\"bench\": \"selftest\""));
        assert!(body.contains("\"config\": \"a_qd1\""));
        assert!(body.contains("\"kiops\": 300.000000"));
        assert!(body.contains("\"p99_us\": null"), "NaN must become null");
        // No trailing comma before the closing bracket.
        assert!(!body.contains(",\n  ]"));
        assert!(body.ends_with("  ]\n}\n"));
    }
}
