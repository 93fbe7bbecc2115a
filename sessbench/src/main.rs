//! `sessbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one RAVE session workload and prints its metric table, a
//! metadata line and, last, one JSON result line. With `--trace 1` the
//! result carries the per-layer split and the driver's spans are written
//! to `.sessbench_out/spans-<workload>-<seed>.json`.
//!
//! `sessbench --manifest` prints the repository's `BENCHMARK.json`.

use sessbench::metrics::{manifest, WORKLOADS};
use sessbench::run::{report, run, RunResult};
use sessbench::{churn::Churn, storm::Storm, stream::Stream, Size};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Host seconds one benchmark run measures (`run_seconds`).
const RUN_SECONDS: u32 = 30;

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--manifest") {
        print!("{}", manifest(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _, _)| *n).collect();
            eprintln!("sessbench: {e}\nworkloads: {}", names.join(", "));
            return ExitCode::from(2);
        }
    };
    let Some(&(name, bit, _)) = WORKLOADS.iter().find(|(n, _, _)| *n == args.workload) else {
        eprintln!("sessbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let (seed, secs, traced) = (args.seed, args.seconds, args.trace);
    let result: RunResult = match name {
        "collab_storm" => run::<Storm>(seed, Size::Full, secs, traced),
        "testbed_stream" => run::<Stream>(seed, Size::Full, secs, traced),
        _ => run::<Churn>(seed, Size::Full, secs, traced),
    };
    if traced {
        let path = PathBuf::from(".sessbench_out").join(format!("spans-{name}-{seed}.json"));
        if let Err(e) = result.tracer.write_json(&path) {
            eprintln!("sessbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    report(name, bit, seed, secs, traced, &result);
    ExitCode::SUCCESS
}
