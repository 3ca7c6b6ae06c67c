//! One command for the EntropyDB serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <explore_mono|gateway_fanout|live_ingest> --seed N --seconds S --trace 0|1
//! ```
//!
//! Servers run in this process on loopback, built through the public
//! `serve`, `RemoteShardedSummary` and `LiveSummary` entry points. The
//! report lines name every metric with its unit, direction and sample
//! count; the last line is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`). With `--trace 0` it carries the end-to-end
//! metrics, with `--trace 1` the per-layer ones. Any wrong or failed reply
//! makes the exit code 1. See `perfbench/README.md` for the workloads.

mod drive;
mod layers;
mod live;
mod node;
mod ops;
mod out;
mod setup;
mod shared;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::Args;

const USAGE: &str =
    "usage: --workload <explore_mono|gateway_fanout|live_ingest> --seed N --seconds S --trace 0|1";

fn parse(argv: &[String]) -> Result<(String, Args), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    };
    Ok((workload.ok_or("missing --workload")?, args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(node::NODE_FLAG) {
        return node::node_main();
    }
    let (workload, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match workload.as_str() {
        "explore_mono" => workloads::explore(&args),
        "gateway_fanout" => workloads::gateway(&args),
        "live_ingest" => live::live(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    run.print(&workload);
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{workload}: {} failed and {} wrong of {} attempted",
            run.failed, run.wrong, run.attempted
        );
        ExitCode::FAILURE
    }
}
