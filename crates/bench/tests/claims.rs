//! No claim without a row: every bench, file and `row·field` that
//! EXPERIMENTS.md's claim table names must exist — the bench as a
//! `[[bench]]` target of this crate, the file checked in at the workspace
//! root, the row and field inside it.

use rssd_bench::{render_bench_json, render_table, BenchRow};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The text of every `` `code span` `` in `cell`.
fn code_spans(cell: &str) -> Vec<&str> {
    cell.split('`').skip(1).step_by(2).collect()
}

/// `"name": value` pairs of one row line of a `BENCH_*.json` file (the
/// shape `render_bench_json` writes: one row per line, string `config`
/// first, then numbers or `null`).
fn json_metrics(line: &str) -> Vec<(&str, &str)> {
    let body = line.trim().trim_end_matches(',');
    let body = body.strip_prefix('{').and_then(|b| b.strip_suffix('}'));
    let (_config, metrics) = body
        .expect("a row object")
        .split_once("\", ")
        .expect("config, then metrics");
    metrics
        .split(", ")
        .map(|pair| {
            let (name, value) = pair.split_once(": ").expect("name: value");
            (name.trim_matches('"'), value)
        })
        .collect()
}

#[test]
fn every_claimed_row_is_in_a_checked_in_file() {
    let root = workspace_root();
    let experiments = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    let manifest = std::fs::read_to_string(root.join("crates/bench/Cargo.toml")).unwrap();
    let section = experiments
        .split("\n## ")
        .find(|section| section.starts_with("Paper claim → bench"))
        .expect("EXPERIMENTS.md has the claim table");

    let mut claims = 0;
    for line in section
        .lines()
        .filter(|l| l.starts_with("| E") || l.starts_with("| —"))
    {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let (bench, file, rows) = (code_spans(cells[3]), code_spans(cells[4]), cells[5]);
        assert_eq!(
            (bench.len(), file.len()),
            (1, 1),
            "one bench, one file: {line}"
        );
        assert!(
            manifest.contains(&format!("[[bench]]\nname = \"{}\"\n", bench[0])),
            "{} is not a [[bench]] of rssd-bench",
            bench[0]
        );
        let json = std::fs::read_to_string(root.join(file[0]))
            .unwrap_or_else(|e| panic!("{} is not checked in: {e}", file[0]));
        assert!(
            !code_spans(rows).is_empty(),
            "a claim names its rows: {line}"
        );
        for span in code_spans(rows) {
            let (row, field) = span.split_once('·').expect("`row·field`");
            let row_line = json
                .lines()
                .find(|l| l.contains(&format!("{{\"config\": \"{row}\", ")))
                .unwrap_or_else(|| panic!("{}: no row {row}", file[0]));
            assert!(
                json_metrics(row_line)
                    .iter()
                    .any(|(name, _)| *name == field),
                "{}: row {row} has no field {field}",
                file[0]
            );
            claims += 1;
        }
    }
    assert!(claims >= 9, "the table covers E1–E8 and the ablation");
}

#[test]
fn the_table_and_the_json_agree_on_every_cell() {
    let rows = vec![
        BenchRow::new("plain_qd1", vec![("p50_us", 512.288), ("kiops", 2.5)]),
        BenchRow::new(
            "rssd_qd1",
            vec![
                ("p50_us", 512.288),
                ("kiops", 2.547469),
                ("overhead_pct", -0.013456),
            ],
        ),
        BenchRow::new("drain", vec![("drain_complete", 1.0), ("score", f64::NAN)]),
    ];
    let json = render_bench_json("sample", &rows);
    let table = render_table(&rows);

    // Two blocks: the qd rows share a header (the shorter row's missing
    // cell prints `-`), the drain row names other metrics.
    let blocks: Vec<Vec<&str>> = table
        .split("\n\n")
        .map(|block| block.lines().collect())
        .collect();
    assert_eq!(blocks.iter().map(Vec::len).collect::<Vec<_>>(), [3, 2]);

    let mut json_rows = json.lines().filter(|l| l.contains("\"config\""));
    for block in &blocks {
        let header: Vec<&str> = block[0].split_whitespace().collect();
        assert_eq!(header[0], "config");
        for line in &block[1..] {
            let cells: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cells.len(), header.len(), "one cell per column: {line}");
            let json_row = json_rows.next().expect("a JSON row per table row");
            assert!(json_row.contains(&format!("\"config\": \"{}\"", cells[0])));
            let metrics = json_metrics(json_row);
            for (i, (name, cell)) in header.iter().zip(&cells).enumerate().skip(1) {
                match metrics.get(i - 1) {
                    Some((json_name, value)) => {
                        assert_eq!(json_name, name);
                        assert_eq!(
                            cell.parse::<f64>().ok(),
                            value.parse::<f64>().ok(),
                            "{}·{name}: table {cell} vs JSON {value}",
                            cells[0]
                        );
                        assert_eq!(*cell == "null", *value == "null");
                    }
                    None => assert_eq!(*cell, "-", "{}·{name} is absent", cells[0]),
                }
            }
        }
    }
    assert!(json_rows.next().is_none(), "a table row per JSON row");
}
