//! Periodic metrics export: a pool's snapshot as one JSON line per
//! interval, written from a thread of its own.

use std::io::Write;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use flap::serve::Metrics;

/// Periodically writes a pool's metrics snapshot as one JSON line per
/// interval — a scrape loop in a thread, no exporter dependency.
///
/// Start one with [`MetricsEmitter::start`] over the `Arc<Metrics>`
/// from [`ParsePool::metrics_arc`](crate::ParsePool::metrics_arc);
/// the thread writes a
/// [`MetricsSnapshot::to_json`](crate::MetricsSnapshot::to_json) line
/// every `interval` and one final line on [`MetricsEmitter::stop`]
/// (also run on drop), so even runs shorter than the interval export
/// a terminal snapshot.
pub struct MetricsEmitter {
    /// Dropping the sender wakes the thread and tells it to stop.
    stop: Option<mpsc::Sender<()>>,
    thread: Option<thread::JoinHandle<()>>,
}

impl MetricsEmitter {
    /// Spawns the emitter thread: one JSON line to `w` per
    /// `interval`, plus a final line at stop.
    pub fn start<W: Write + Send + 'static>(
        metrics: Arc<Metrics>,
        interval: Duration,
        mut w: W,
    ) -> MetricsEmitter {
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = thread::Builder::new()
            .name("flap-metrics".to_string())
            .spawn(move || {
                let mut emit =
                    || writeln!(w, "{}", metrics.snapshot().to_json()).and_then(|()| w.flush());
                // each timeout is a tick; dropping the sender ends the loop
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    if emit().is_err() {
                        break;
                    }
                }
                // terminal snapshot so short runs still export state
                let _ = emit();
            })
            .expect("spawn metrics emitter");
        MetricsEmitter {
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    /// Stops the emitter: writes one final snapshot line and joins
    /// the thread. Implied by drop; explicit for visible sequencing.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for MetricsEmitter {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
