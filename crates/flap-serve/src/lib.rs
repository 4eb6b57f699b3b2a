//! `flap-serve` — a persistent parse service over flap.
//!
//! The service machinery itself — [`ParsePool`], [`PoolConfig`],
//! [`JobHandle`], [`Metrics`] — lives in [`flap::serve`] so it is
//! reachable from the core crate. The pool owns one parse session per
//! worker and starts a worker thread only when a wake-up needs one; a
//! caller waiting on the job next in line runs it itself when a
//! session is idle, and a panicking action replaces only its session. Its metrics split each job's latency into queue wait and
//! service. This crate re-exports it and adds the server-side
//! trimmings:
//!
//! * [`frame`] — minimal length-prefixed framing for byte streams, so
//!   a firehose of parse requests can be carried over any
//!   `Read`/`Write` transport;
//! * [`MetricsEmitter`] — a thread that writes a pool's metrics
//!   snapshot as one JSON line per interval;
//! * the `flap-serve` binary — a demo server that parses a
//!   stdin/file firehose of framed requests across N pool workers and
//!   prints the pool's metrics report (see `flap-serve help`).

#![warn(missing_docs)]

mod emitter;
pub mod frame;

pub use emitter::MetricsEmitter;
pub use flap::serve::{
    JobError, JobHandle, JobInput, LatencyHistogram, Metrics, MetricsSnapshot, ParsePool,
    PoolConfig, SubmitError, LATENCY_BUCKETS,
};
