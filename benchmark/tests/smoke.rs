//! The `--smoke` scale (1/50 of every size) end to end, through the real
//! executable: every workload, untraced and traced, must pass its output
//! checks and emit exactly the metric names `BENCHMARK.json` declares.

use rssd_benchmark::json::Json;
use rssd_benchmark::metrics::{self, Better};
use rssd_benchmark::workloads::{why, NAMES};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn declared(manifest: &Json, section: &str) -> Vec<String> {
    manifest
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {section} list"))
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

/// Runs one workload at smoke scale and returns the driver's JSON line.
fn smoke(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_rssd-benchmark"))
        .args(["--workload", workload, "--seed", "29", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("the benchmark executable runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a last line")).expect("the last line is JSON")
}

#[test]
fn smoke_run_emits_exactly_the_declared_metrics() {
    let manifest = benchmark_json();
    let sections = [("0", "end_to_end"), ("1", "per_layer")];
    let started = Instant::now();
    for workload in NAMES {
        for (trace, section) in sections {
            let line = smoke(workload, trace);
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                line.get("correct").unwrap().as_bool(),
                Some(true),
                "{workload}"
            );
            assert!(
                line.get("attempted").unwrap().as_f64().unwrap() >= 1.0,
                "{workload}"
            );
            assert_eq!(
                line.get("failed").unwrap().as_f64(),
                Some(0.0),
                "{workload}"
            );
            let emitted: Vec<String> = line
                .get("metrics")
                .unwrap()
                .as_obj()
                .unwrap()
                .iter()
                .map(|(name, value)| {
                    assert!(
                        value.get("value").unwrap().as_f64().is_some(),
                        "{workload} {name}: value is a number"
                    );
                    name.clone()
                })
                .collect();
            assert_eq!(
                emitted,
                declared(&manifest, section),
                "{workload} --trace {trace}: emitted names (left) vs BENCHMARK.json (right)"
            );
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    println!("smoke: 8 runs in {elapsed:.1} s");
    // About 10 s on the machine the sizes were chosen on; the limit only
    // catches a smoke scale that stopped being one, and only for the
    // optimized build the benchmark ships as.
    if !cfg!(debug_assertions) {
        assert!(elapsed < 30.0, "smoke took {elapsed:.1} s");
    }
}

#[test]
fn manifest_agrees_with_the_metric_tables() {
    let manifest = benchmark_json();
    let workloads = manifest.get("workloads").unwrap().as_arr().unwrap();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, NAMES);
    for workload in workloads {
        let name = workload.get("name").unwrap().as_str().unwrap();
        assert_eq!(
            workload.get("why").unwrap().as_str(),
            Some(why(name)),
            "{name}"
        );
    }

    let declared_e2e: Vec<&str> = metrics::END_TO_END
        .iter()
        .filter(|m| m.declared)
        .map(|m| m.name)
        .collect();
    assert_eq!(declared(&manifest, "end_to_end"), declared_e2e);
    for entry in manifest.get("end_to_end").unwrap().as_arr().unwrap() {
        let name = entry.get("name").unwrap().as_str().unwrap();
        let metric = metrics::end_to_end(name).unwrap();
        assert_eq!(
            entry.get("unit").unwrap().as_str(),
            Some(metric.unit),
            "{name}"
        );
        let better = Better::parse(entry.get("better").unwrap().as_str().unwrap());
        assert_eq!(better, Some(metric.better), "{name}");
        let bound = entry.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
    }
    let setup = manifest
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .find(|m| m.get("name").unwrap().as_str() == Some("setup_s"));
    assert!(setup.is_some(), "setup_s is declared");

    let all_layers: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(declared(&manifest, "per_layer"), all_layers);
    for entry in manifest.get("per_layer").unwrap().as_arr().unwrap() {
        let name = entry.get("name").unwrap().as_str().unwrap();
        let metric = metrics::per_layer(name).unwrap();
        assert_eq!(
            entry.get("unit").unwrap().as_str(),
            Some(metric.unit),
            "{name}"
        );
        let better = Better::parse(entry.get("better").unwrap().as_str().unwrap());
        assert_eq!(better, Some(metric.better), "{name}");
    }

    let command: Vec<&str> = manifest
        .get("command")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|part| part.as_str().unwrap())
        .collect();
    assert!(command.contains(&"benchmark/Cargo.toml"), "{command:?}");
    let paths = manifest.get("paths").unwrap().as_arr().unwrap();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
}
