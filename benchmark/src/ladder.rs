//! The traced run: every workload's loop with spans around each call
//! into a layer, plus the ladder rungs, so that one run prints every
//! per-layer metric.
//!
//! The named workload gets half of `--seconds` and the other two a
//! quarter each. Within each, traced and untraced rounds alternate;
//! the difference between their op times is reported as
//! `trace.overhead_share.<workload>`. The spans are written to
//! `benchmark/traces/<workload>.csv` when the run ends, and each
//! span name's self time (its time minus its child spans') is printed
//! to stderr.

use std::path::Path;
use std::time::Duration;

use crate::report::Report;
use crate::stats::Calibration;
use crate::trace::Tracer;
use crate::{bulk, edits, requests, Workload};

/// Runs the traced ladder with `workload` in front.
pub fn run(
    workload: Workload,
    seed: u64,
    budget: Duration,
    cal: &mut Calibration,
    report: &mut Report,
) {
    let share = |w: Workload| budget.mul_f64(if w == workload { 0.5 } else { 0.25 });
    let mut t = Tracer::new();
    let bulk = bulk::run(seed, share(Workload::Bulk), Some(&mut t), cal, report);
    let requests = requests::run(seed, share(Workload::Requests), Some(&mut t), cal, report);
    edits::run(seed, share(Workload::Edits), Some(&mut t), cal, report);

    report.metric("machine.slowdown", cal.slowdown(), "ratio");
    let (load, compile) = (requests.from_artifact_us, bulk.compile_us);
    report.check(load < compile, || {
        format!(
            "ladder order: artifact load {load:.0} us is not below cold compile {compile:.0} us"
        )
    });

    eprintln!(
        "{:<36} {:>9} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, (count, total, own)) in t.self_times() {
        eprintln!(
            "{name:<36} {count:>9} {:>12.2} {:>12.2}",
            total / 1e3,
            own / 1e3
        );
    }
    let path = Path::new("benchmark/traces").join(format!("{}.csv", workload.name()));
    if let Err(e) = t.write_csv(&path) {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
}
