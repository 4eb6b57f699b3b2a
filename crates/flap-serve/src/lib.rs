//! `flap-serve` — a persistent parse service over flap.
//!
//! The service machinery itself — [`ParsePool`], [`PoolConfig`],
//! [`JobHandle`], [`StreamJob`], [`Metrics`] — lives in
//! [`flap::serve`] so it is reachable from the core crate; this crate
//! re-exports it and adds the server-side trimmings:
//!
//! * [`frame`] — minimal length-prefixed framing for byte streams, so
//!   a firehose of parse requests can be carried over any
//!   `Read`/`Write` transport;
//! * the `flap-serve` binary — a demo server that parses a
//!   stdin/file firehose of framed requests across N pool workers and
//!   prints the pool's metrics report (see `flap-serve help`).

#![warn(missing_docs)]

pub mod frame;

pub use flap::serve::{
    FeedHandle, FeedStatus, Handle, JobError, JobHandle, JobInput, LatencyHistogram, Metrics,
    MetricsSnapshot, ParsePool, PoolConfig, StreamJob, SubmitError, LATENCY_BUCKETS,
};
