//! Command line of the benchmark (see `README.md` in this directory).
//!
//! ```text
//! rssd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--smoke]
//! rssd-benchmark [--seed <n>] [--seconds <s>] [--traced] [--out <dir>] [--smoke]
//! rssd-benchmark compare <dirA> <dirB>
//! ```
//!
//! The first form runs one workload in this process and prints, as the last
//! line of standard output, the JSON object `BENCHMARK.json`'s driver
//! reads. The second runs all four workloads one after another, each in a
//! child process of its own (so that peak memory is per workload), and
//! writes results files under `--out`.

use rssd_benchmark::compare::compare;
use rssd_benchmark::report::Env;
use rssd_benchmark::workloads::{self, RunOptions, NAMES};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Seed of a run that names none (29 is held out: nothing was tuned on it).
const DEFAULT_SEED: u64 = 11;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;

struct Args {
    workload: Option<String>,
    options: RunOptions,
}

fn usage() -> String {
    format!(
        "usage: rssd-benchmark [--workload <{}>] [--seed <u64>] [--seconds <n>] \
         [--trace <0|1> | --traced] [--out <dir>] [--smoke]\n       \
         rssd-benchmark compare <dirA> <dirB>",
        NAMES.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        options: RunOptions {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            traced: false,
            smoke: false,
            out: None,
        },
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                parsed.options.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                parsed.options.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number".to_string())?;
            }
            "--trace" => {
                parsed.options.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--traced" => parsed.options.traced = true,
            "--smoke" => parsed.options.smoke = true,
            "--out" => parsed.options.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(parsed)
}

/// Runs one workload in this process.
fn run_one(name: &str, options: &RunOptions) -> ExitCode {
    let Some(report) = workloads::run(name, options) else {
        eprintln!("unknown workload {name}\n{}", usage());
        return ExitCode::from(2);
    };
    report.print_human();
    if let Some(dir) = &options.out {
        match report.write(dir, &Env::capture()) {
            Ok(path) => println!("  results: {}", path.display()),
            Err(e) => {
                eprintln!("cannot write results under {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report.driver_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{name}: an output check failed");
        ExitCode::FAILURE
    }
}

/// Seconds since the Unix epoch as `YYYYMMDDThhmmssZ`.
fn utc_stamp() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}{month:02}{day:02}T{:02}{:02}{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

/// Runs every workload, each in a child process of its own.
fn run_all(options: &RunOptions) -> ExitCode {
    let out = options
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/results").join(utc_stamp()));
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable to re-run it: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    let passes: &[bool] = if options.traced {
        &[false, true]
    } else {
        &[false]
    };
    for name in NAMES {
        for traced in passes {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .args(["--trace", if *traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&out);
            if options.smoke {
                child.arg("--smoke");
            }
            // `status` waits for the child; its output goes straight through.
            match child.status() {
                Ok(status) if status.success() => {}
                Ok(status) => failed.push(format!("{name} (trace {traced}): {status}")),
                Err(e) => failed.push(format!("{name} (trace {traced}): {e}")),
            }
        }
    }
    println!("results under {}", out.display());
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        for failure in &failed {
            eprintln!("FAILED {failure}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        let [_, dir_a, dir_b] = args.as_slice() else {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        };
        return match compare(&PathBuf::from(dir_a), &PathBuf::from(dir_b)) {
            Ok((0, _)) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match &parsed.workload {
        Some(name) => run_one(name, &parsed.options),
        None => run_all(&parsed.options),
    }
}
