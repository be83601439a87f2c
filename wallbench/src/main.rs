//! `wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's record (nproc, seed, commit), every metric with its
//! unit and clock, any correctness failure by workload and item, and as
//! the last line one JSON object: `correct`, `attempted`, `failed` and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits non-zero on a failed check or a bad argument.

use std::process::ExitCode;

use wallbench::report::{render_row, result_json, Clock, Metric};
use wallbench::{END_TO_END, PER_LAYER, WORKLOADS, WORK_ROOT};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (one of {})", WORKLOADS.join(", ")));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let id = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head,
    };
    match id.trim() {
        "" => "unknown".to_owned(),
        id => id.to_owned(),
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            eprintln!(
                "usage: wallbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# run workload={} seed={} seconds={} trace={} nproc={nproc} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
    );
    let outcome = wallbench::run(&args.workload, args.seed, args.seconds, args.trace);
    let _ = std::fs::remove_dir_all(
        std::path::Path::new(WORK_ROOT).join(format!("run-{}", std::process::id())),
    );
    let (metrics, mut tally) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wallbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let listed: Vec<Metric> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, clock)| {
                let found = metrics.0.iter().find(|m| m.name == name);
                found.cloned().unwrap_or(Metric {
                    name: name.into(),
                    unit,
                    clock,
                    value: 0.0,
                    samples: 0,
                })
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let found = metrics.0.iter().find(|m| m.name == name);
                found.cloned().unwrap_or(Metric {
                    name: name.into(),
                    unit,
                    clock: Clock::Wall,
                    value: f64::NAN,
                    samples: 0,
                })
            })
            .collect()
    };
    for m in &listed {
        if !m.value.is_finite() {
            tally.record(Err(format!("{}: metric {} was not measured", args.workload, m.name)));
        }
    }

    println!(
        "# metrics ({}):",
        if args.trace { "traced run, per layer" } else { "timed run, end to end" }
    );
    for m in &metrics.0 {
        println!("  {}", render_row(m));
    }
    let share = Metric {
        name: "error_share".into(),
        unit: "ratio",
        clock: Clock::Count,
        value: tally.error_share(),
        samples: tally.attempted as usize,
    };
    println!("  {}", render_row(&share));
    for f in &tally.failures {
        println!("# FAILED {f}");
    }
    println!("{}", result_json(&tally, &listed));
    if tally.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
