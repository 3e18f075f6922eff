//! `raf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints the stamp, the answer digest, the tail
//! percentiles and, as the last stdout line, the result object. Exits 1
//! when any op fails its checks or the run cannot produce its inputs.

use raf_perfbench::{run, RunConfig, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: raf-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut config = RunConfig {
        workload: Workload::Warm,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut workload = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => config.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|_| bad())?;
                if !(config.seconds > 0.0 && config.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    config.workload = workload.ok_or("--workload is required")?;
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for failure in &report.failures {
        eprintln!("check failed: {failure}");
    }
    for line in report.lines() {
        println!("{line}");
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
