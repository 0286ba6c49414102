//! What one workload run reports: metrics by name, the output checks, and
//! the three renderings — lines for a reader, the one-line JSON the driver
//! parses, and the results file `compare` reads back.

use crate::json::Json;
use crate::metrics::{self, Clock};
use crate::stats::Sampled;
use std::path::Path;
use std::process::Command;

/// One output check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The evidence, or what went wrong.
    pub detail: String,
}

/// The result of running one workload, traced or not.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs were made from.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub traced: bool,
    /// Repetitions measured.
    pub reps: usize,
    /// Commands attempted in one repetition.
    pub commands_per_rep: u64,
    /// Commands attempted over all repetitions.
    pub attempted: u64,
    /// Commands that completed with an error, stalled or were refused.
    pub failed: u64,
    /// End-to-end metrics, in [`metrics::END_TO_END`] order.
    pub end_to_end: Vec<(&'static str, Sampled)>,
    /// Per-layer metrics.
    pub per_layer: Vec<(&'static str, f64)>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Free-form lines for the reader (phase splits, sample counts).
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Report {
        Report {
            workload,
            seed,
            traced,
            reps: 0,
            commands_per_rep: 0,
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records an end-to-end metric.
    ///
    /// # Panics
    ///
    /// Panics on a name [`metrics::END_TO_END`] does not list, or one set
    /// twice.
    pub fn set(&mut self, name: &str, value: Sampled) {
        let metric =
            metrics::end_to_end(name).unwrap_or_else(|| panic!("unknown end-to-end metric {name}"));
        assert!(
            self.end_to_end.iter().all(|(n, _)| *n != metric.name),
            "end-to-end metric {name} set twice"
        );
        self.end_to_end.push((metric.name, value));
    }

    /// Records a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name [`metrics::PER_LAYER`] does not list, or one set
    /// twice.
    pub fn layer(&mut self, name: &str, value: f64) {
        let metric =
            metrics::per_layer(name).unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        assert!(
            self.per_layer.iter().all(|(n, _)| *n != metric.name),
            "per-layer metric {name} set twice"
        );
        self.per_layer.push((metric.name, value));
    }

    /// The per-layer metric `name`, if recorded.
    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.per_layer
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Records an output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Adds a line for the reader.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Sorts the metrics into table order and checks the set is complete:
    /// an untraced run must carry every declared end-to-end metric, a
    /// traced run every per-layer metric.
    pub fn finish(&mut self) {
        let order = |name: &str| metrics::END_TO_END.iter().position(|m| m.name == name);
        self.end_to_end.sort_by_key(|(name, _)| order(name));
        let order = |name: &str| metrics::PER_LAYER.iter().position(|m| m.name == name);
        self.per_layer.sort_by_key(|(name, _)| order(name));
        let missing: Vec<&str> = if self.traced {
            metrics::PER_LAYER
                .iter()
                .map(|m| m.name)
                .filter(|name| self.layer_value(name).is_none())
                .collect()
        } else {
            metrics::END_TO_END
                .iter()
                .filter(|m| m.declared)
                .map(|m| m.name)
                .filter(|name| self.end_to_end.iter().all(|(n, _)| n != name))
                .collect()
        };
        self.check(
            "every declared metric is emitted",
            missing.is_empty(),
            format!("missing: {missing:?}"),
        );
        let bad: Vec<&str> = self
            .end_to_end
            .iter()
            .filter(|(_, v)| !v.median.is_finite())
            .map(|(n, _)| *n)
            .chain(
                self.per_layer
                    .iter()
                    .filter(|(_, v)| !v.is_finite())
                    .map(|(n, _)| *n),
            )
            .collect();
        self.check(
            "every metric is a finite number",
            bad.is_empty(),
            format!("not finite: {bad:?}"),
        );
    }

    /// Prints every metric by name with its unit, the notes and the checks.
    pub fn print_human(&self) {
        let mode = if self.traced { "traced" } else { "untraced" };
        println!(
            "== {} ({mode}) seed {} reps {} commands/rep {}",
            self.workload, self.seed, self.reps, self.commands_per_rep
        );
        for (name, v) in &self.end_to_end {
            let m = metrics::end_to_end(name).expect("set() checked the name");
            let value = readable(v.median);
            match m.clock {
                Clock::Host => println!(
                    "  {name:<28} {value:>16} {:<6} host  median of {} (min {}, max {})",
                    m.unit,
                    v.samples,
                    readable(v.min),
                    readable(v.max)
                ),
                Clock::Sim => println!(
                    "  {name:<28} {value:>16} {:<6} sim   identical over {} reps",
                    m.unit, v.samples
                ),
            }
        }
        for (name, v) in &self.per_layer {
            let m = metrics::per_layer(name).expect("layer() checked the name");
            println!("  {name:<36} {:>18} {}", readable(*v), m.unit);
        }
        for note in &self.notes {
            println!("  . {note}");
        }
        for check in &self.checks {
            let mark = if check.ok { "ok  " } else { "FAIL" };
            println!("  [{mark}] {} — {}", check.name, check.detail);
        }
    }

    /// The one JSON object the driver reads from the last line of standard
    /// output: the declared end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<(String, Json)> = if self.traced {
            self.per_layer
                .iter()
                .map(|(name, v)| {
                    let unit = metrics::per_layer(name).expect("known").unit;
                    (name.to_string(), value_unit(*v, unit))
                })
                .collect()
        } else {
            self.end_to_end
                .iter()
                .filter_map(|(name, v)| {
                    let m = metrics::end_to_end(name).expect("known");
                    m.declared
                        .then(|| (name.to_string(), value_unit(v.median, m.unit)))
                })
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_line()
    }

    /// The results file: everything above plus where and how it was
    /// measured.
    pub fn to_json(&self, env: &Env) -> Json {
        let end_to_end = self.end_to_end.iter().map(|(name, v)| {
            let m = metrics::end_to_end(name).expect("known");
            (
                name.to_string(),
                Json::obj([
                    ("value", Json::num(v.median)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                    ("bound", Json::num(m.bound)),
                    (
                        "clock",
                        Json::str(match m.clock {
                            Clock::Host => "host",
                            Clock::Sim => "sim",
                        }),
                    ),
                    ("min", Json::num(v.min)),
                    ("max", Json::num(v.max)),
                    ("samples", Json::Num(v.samples as f64)),
                ]),
            )
        });
        let per_layer = self.per_layer.iter().map(|(name, v)| {
            let m = metrics::per_layer(name).expect("known");
            (
                name.to_string(),
                Json::obj([
                    ("value", Json::num(*v)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                ]),
            )
        });
        let checks = self.checks.iter().map(|c| {
            Json::obj([
                ("name", Json::str(&c.name)),
                ("ok", Json::Bool(c.ok)),
                ("detail", Json::str(&c.detail)),
            ])
        });
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("seed", Json::Num(self.seed as f64)),
            ("reps", Json::Num(self.reps as f64)),
            ("commands_per_rep", Json::Num(self.commands_per_rep as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("correct", Json::Bool(self.correct())),
            ("env", env.to_json()),
            ("end_to_end", Json::Obj(end_to_end.collect())),
            ("per_layer", Json::Obj(per_layer.collect())),
            ("checks", Json::Arr(checks.collect())),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// Writes the results file into `dir` (created if missing) as
    /// `<workload>.json`, or `<workload>.traced.json` for a traced run, and
    /// returns its path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, dir: &Path, env: &Env) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let suffix = if self.traced { ".traced" } else { "" };
        let path = dir.join(format!("{}{suffix}.json", self.workload));
        std::fs::write(&path, self.to_json(env).to_pretty())?;
        Ok(path)
    }
}

/// Six decimals, or scientific notation for values those would flatten.
fn readable(value: f64) -> String {
    if value != 0.0 && value.abs() < 1e-3 {
        format!("{value:.6e}")
    } else {
        format!("{value:.6}")
    }
}

fn value_unit(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))])
}

/// Where a run was measured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Env {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, when it is a
    /// repository.
    pub git_commit: String,
}

impl Env {
    /// Reads the environment. Every field degrades to `"unknown"` rather
    /// than failing: a checkout need not be a git repository.
    pub fn capture() -> Env {
        let run = |program: &str, args: &[&str]| {
            Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|out| out.status.success())
                .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split(':').nth(1))
                    .map(|model| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Env {
            nproc: nproc(),
            cpu_model,
            rustc: run("rustc", &["-V"]),
            git_commit: run("git", &["rev-parse", "HEAD"]),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("rustc", Json::str(&self.rustc)),
            ("git_commit", Json::str(&self.git_commit)),
        ])
    }
}

/// Logical CPUs available to the process (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
