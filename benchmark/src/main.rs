//! The flap benchmark: three closed-loop workloads that check every
//! outcome against the grammars' independent reference parsers, and
//! a traced run that prints the per-layer cost ladder. See NOTES.md.
//!
//! ```text
//! flap-benchmark --workload <bulk-parse|small-requests|edit-session>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer ones. The exit
//! code is non-zero when any outcome disagrees with its oracle or a
//! self-check fails.

mod bulk;
mod edits;
mod inputs;
mod ladder;
mod report;
mod requests;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use report::Report;
use stats::Calibration;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Bulk,
    Requests,
    Edits,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Bulk, Workload::Requests, Workload::Edits];

    fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk-parse",
            Workload::Requests => "small-requests",
            Workload::Edits => "edit-session",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: flap-benchmark --workload <bulk-parse|small-requests|edit-session> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    stats::fix_mmap_threshold();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut report = Report::default();
    let mut cal = Calibration::new();
    if args.trace {
        ladder::run(args.workload, args.seed, budget, &mut cal, &mut report);
    } else {
        match args.workload {
            Workload::Bulk => {
                bulk::run(args.seed, budget, None, &mut cal, &mut report);
            }
            Workload::Requests => {
                requests::run(args.seed, budget, None, &mut cal, &mut report);
            }
            Workload::Edits => edits::run(args.seed, budget, None, &mut cal, &mut report),
        }
    }
    report.print(cal.slowdown());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
