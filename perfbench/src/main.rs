//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one benchmark workload and prints a report, then one JSON result
//! line. Exit code 0 when every answer checked out, 1 when any failed or a
//! run could not complete, 2 on bad arguments.
//!
//! `perfbench --derive-expected` re-derives the reference optima in
//! `manifest.json` with certified runs.

use std::process::ExitCode;

use mm_perfbench::run::{run, RunOptions};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload ladder|certified|portfolio|service --seed N --seconds S --trace 0|1\n\
         \x20      perfbench --derive-expected"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--derive-expected") {
        return match mm_perfbench::derive::derive_expected() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        value("--workload"),
        value("--seed").and_then(|s| s.parse::<u64>().ok()),
        value("--seconds").and_then(|s| s.parse::<f64>().ok()),
        value("--trace"),
    ) else {
        return usage();
    };
    if !(seconds.is_finite() && seconds > 0.0 && matches!(trace.as_str(), "0" | "1")) {
        return usage();
    }
    let opts = RunOptions {
        workload,
        seed,
        seconds,
        trace: trace == "1",
    };
    match run(&opts) {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            println!("{}", mm_perfbench::result_line(&outcome));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
