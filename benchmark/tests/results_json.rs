//! The results-JSON writer: what a report writes, `compare` must read back
//! — every digit of every value, the units, the bounds, the environment.

use rssd_benchmark::compare::{judge, Side, Verdict};
use rssd_benchmark::json::Json;
use rssd_benchmark::metrics::{self, Better};
use rssd_benchmark::report::{Env, Report};
use rssd_benchmark::stats::Sampled;
use std::path::PathBuf;

fn env() -> Env {
    Env {
        nproc: 2,
        cpu_model: "Test \"CPU\" @ 2.10GHz".to_string(),
        rustc: "rustc 1.95.0".to_string(),
        git_commit: "unknown".to_string(),
    }
}

fn sample_report() -> Report {
    let mut report = Report::new("steady_qd32", 11, false);
    report.reps = 3;
    report.commands_per_rep = 100_000;
    report.attempted = 300_000;
    report.set("sim_kiops", Sampled::exact(4.902675123456789, 3));
    report.set(
        "host_ops_per_s",
        Sampled::of(&[46_145.676997, 41_459.5, 48_254.25]),
    );
    report.check("a check", true, "with \"quotes\"\nand a newline");
    report.note("a note");
    report
}

#[test]
fn written_file_reads_back_exactly() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("results_json");
    let report = sample_report();
    let path = report.write(&dir, &env()).unwrap();
    assert_eq!(path, dir.join("steady_qd32.json"));
    let json = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();

    assert_eq!(json.get("workload").unwrap().as_str(), Some("steady_qd32"));
    assert_eq!(json.get("seed").unwrap().as_f64(), Some(11.0));
    assert_eq!(json.get("reps").unwrap().as_f64(), Some(3.0));
    assert_eq!(
        json.get("commands_per_rep").unwrap().as_f64(),
        Some(100_000.0)
    );
    assert_eq!(json.get("correct").unwrap().as_bool(), Some(true));
    let environment = json.get("env").unwrap();
    assert_eq!(environment.get("nproc").unwrap().as_f64(), Some(2.0));
    assert_eq!(
        environment.get("cpu_model").unwrap().as_str(),
        Some("Test \"CPU\" @ 2.10GHz")
    );
    assert_eq!(
        environment.get("rustc").unwrap().as_str(),
        Some("rustc 1.95.0")
    );
    assert_eq!(
        environment.get("git_commit").unwrap().as_str(),
        Some("unknown")
    );

    let e2e = json.get("end_to_end").unwrap();
    // Table order, whatever order they were set in.
    let names: Vec<&str> = e2e
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(names, ["sim_kiops", "host_ops_per_s"]);
    let kiops = e2e.get("sim_kiops").unwrap();
    assert_eq!(
        kiops.get("value").unwrap().as_f64(),
        Some(4.902675123456789)
    );
    assert_eq!(kiops.get("unit").unwrap().as_str(), Some("1/ms"));
    assert_eq!(kiops.get("clock").unwrap().as_str(), Some("sim"));
    let ops = e2e.get("host_ops_per_s").unwrap();
    assert_eq!(ops.get("value").unwrap().as_f64(), Some(46_145.676997));
    assert_eq!(ops.get("min").unwrap().as_f64(), Some(41_459.5));
    assert_eq!(ops.get("max").unwrap().as_f64(), Some(48_254.25));
    assert_eq!(ops.get("samples").unwrap().as_f64(), Some(3.0));
    assert_eq!(ops.get("better").unwrap().as_str(), Some("higher"));
    assert_eq!(
        ops.get("bound").unwrap().as_f64(),
        Some(metrics::end_to_end("host_ops_per_s").unwrap().bound)
    );
    let check = &json.get("checks").unwrap().as_arr().unwrap()[0];
    assert_eq!(
        check.get("detail").unwrap().as_str(),
        Some("with \"quotes\"\nand a newline")
    );
}

#[test]
fn traced_reports_get_their_own_file() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("results_json_traced");
    let mut report = Report::new("fleet_mixed", 29, true);
    report.layer("fleet.worker_speedup", 1.75);
    let path = report.write(&dir, &env()).unwrap();
    assert_eq!(path, dir.join("fleet_mixed.traced.json"));
    let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let speedup = json
        .get("per_layer")
        .unwrap()
        .get("fleet.worker_speedup")
        .unwrap();
    assert_eq!(speedup.get("value").unwrap().as_f64(), Some(1.75));
    assert_eq!(speedup.get("better").unwrap().as_str(), Some("higher"));
}

#[test]
fn driver_line_carries_only_declared_metrics() {
    let line = sample_report().driver_line();
    assert!(!line.contains('\n'));
    let json = Json::parse(&line).unwrap();
    let keys: Vec<&str> = json
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(json.get("attempted").unwrap().as_f64(), Some(300_000.0));
    let metrics = json.get("metrics").unwrap().as_obj().unwrap();
    for (name, value) in metrics {
        assert!(metrics::end_to_end(name).unwrap().declared, "{name}");
        let keys: Vec<&str> = value
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["value", "unit"]);
    }
}

#[test]
fn parser_rejects_malformed_documents() {
    for bad in [
        "",
        "{",
        "{\"a\" 1}",
        "[1,]",
        "{\"a\": 1} x",
        "\"open",
        "nul",
    ] {
        assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
    }
    let ok = Json::parse(" {\"a\": [1, -2.5e3, true, null, \"\\u00e9\\n\"]} ").unwrap();
    let items = ok.get("a").unwrap().as_arr().unwrap();
    assert_eq!(items[1].as_f64(), Some(-2500.0));
    assert_eq!(items[4].as_str(), Some("é\n"));
}

#[test]
fn verdicts_follow_bound_and_overlap() {
    let side = |value: f64, min: f64, max: f64| Side { value, min, max };
    let exact = |value: f64| side(value, value, value);
    // Within the bound.
    assert_eq!(
        judge(
            side(100.0, 95.0, 105.0),
            side(103.0, 99.0, 108.0),
            Better::Higher,
            0.05
        ),
        Verdict::Same
    );
    // Beyond the bound, ranges overlap: the spread does not resolve it.
    assert_eq!(
        judge(
            side(100.0, 90.0, 104.0),
            side(92.0, 88.0, 96.0),
            Better::Higher,
            0.05
        ),
        Verdict::Unresolved
    );
    // Beyond the bound, every B run below every A run.
    assert_eq!(
        judge(
            side(100.0, 98.0, 104.0),
            side(90.0, 88.0, 93.0),
            Better::Higher,
            0.05
        ),
        Verdict::Worse
    );
    assert_eq!(
        judge(
            side(100.0, 98.0, 104.0),
            side(90.0, 88.0, 93.0),
            Better::Lower,
            0.05
        ),
        Verdict::Better
    );
    // Sim-clock metrics have no spread: any change beyond the bound counts.
    assert_eq!(
        judge(exact(2.0), exact(2.0), Better::Lower, 0.0),
        Verdict::Same
    );
    assert_eq!(
        judge(exact(2.0), exact(2.02), Better::Lower, 0.005),
        Verdict::Worse
    );
    assert_eq!(
        judge(exact(0.0), exact(0.0), Better::Lower, 0.0),
        Verdict::Same
    );
    assert_eq!(
        judge(exact(0.0), exact(0.1), Better::Lower, 0.0),
        Verdict::Worse
    );
}
