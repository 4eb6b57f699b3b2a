//! A persistent parse service: a long-lived worker pool with
//! admission control, panic isolation and built-in metrics.
//!
//! [`Parser::parse_batch`](crate::Parser::parse_batch) spawns scoped
//! threads on every call, which is the right shape for a one-off
//! batch but not for a server fielding millions of small requests:
//! there, thread spawn cost must be amortized, concurrency must be
//! bounded, overload must be *rejected* rather than buffered without
//! limit, and a panicking semantic action must kill one request — not
//! the process. [`ParsePool`] provides exactly that substrate:
//!
//! * **Worker pool.** N long-lived worker threads, each owning one
//!   reusable [`ParseSession`], share the compiled tables behind an
//!   `Arc`. After warm-up, serving a job allocates nothing — the same
//!   zero-allocation steady state as
//!   [`parse_with`](flap_staged::CompiledParser::parse_with), now
//!   behind a queue.
//! * **Admission control.** The submission queue is bounded.
//!   [`ParsePool::submit`] blocks until space frees up;
//!   [`ParsePool::try_submit`] returns [`SubmitError::Busy`]
//!   immediately — explicit backpressure a caller can convert into
//!   load shedding, and a `rejected` counter that makes overload
//!   visible.
//! * **Completion façade.** Submission returns a [`JobHandle`] with
//!   blocking [`wait`](Handle::wait), non-blocking
//!   [`try_wait`](Handle::try_wait) and
//!   [`wait_timeout`](Handle::wait_timeout) — a poll interface an
//!   async runtime can drive without this crate taking any
//!   dependency — or, via [`ParsePool::submit_with_callback`], a
//!   callback invoked on the worker at completion.
//! * **Streaming jobs.** [`ParsePool::open_stream`] parks a
//!   suspendable session in the pool; each
//!   [`StreamJob::feed`] submits one chunk as a queue job, so a
//!   connection's bytes are parsed incrementally by whichever worker
//!   is free while the connection itself never runs parse code.
//! * **Panic isolation.** A panicking semantic action fails its own
//!   job with [`JobError::Panicked`]; the worker whose session the
//!   unwind poisoned is replaced by a fresh thread. The pool and
//!   every other job keep going.
//! * **Graceful shutdown.** Dropping the pool (or calling
//!   [`ParsePool::shutdown`]) closes the queue, drains every
//!   already-accepted job, and joins the workers.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use flap::serve::{JobError, PoolConfig};
//! use flap::{Cfe, LexerBuilder, Parser};
//!
//! let mut lx = LexerBuilder::new();
//! let atom = lx.token("atom", "[a-z]+")?;
//! lx.skip(" ")?;
//! let lexer = lx.build()?;
//! let grammar: Cfe<i64> =
//!     Cfe::fix(|x| Cfe::eps_with(|| 0).or(Cfe::tok_val(atom, 1).then(x, |a, b| a + b)));
//! let parser = Parser::compile(lexer, &grammar)?;
//!
//! let pool = parser.serve(PoolConfig::default().workers(2).queue_capacity(8));
//!
//! // one-shot jobs: submit bytes, wait (or poll) the handle
//! let handle = pool.submit(&b"hello world"[..]).unwrap();
//! assert_eq!(handle.wait(), Ok(2));
//!
//! // shared inputs avoid the copy: Arc<[u8]> submissions are zero-copy
//! let doc: Arc<[u8]> = Arc::from(&b"one two three"[..]);
//! assert_eq!(pool.submit(doc).unwrap().wait(), Ok(3));
//!
//! // streaming: chunks of one connection, parsed on pool workers
//! let mut stream = pool.open_stream();
//! stream.feed(&b"ab cd "[..]).unwrap().wait().unwrap();
//! let done = stream.finish().unwrap().wait().unwrap();
//! assert_eq!(done.into_value(), Some(2));
//!
//! let m = pool.metrics().snapshot();
//! assert_eq!(m.parse_errors + m.panicked, 0);
//! assert!(m.completed >= 4);
//! pool.shutdown(); // drains and joins; also implied by drop
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use flap_fuse::FusedParseError;
use flap_staged::{CompiledParser, ParseSession, Step};

use crate::cache::CacheCounters;
use crate::obs::TraceRecorder;

mod metrics;

pub use metrics::{LatencyHistogram, Metrics, MetricsSnapshot, LATENCY_BUCKETS};

use metrics::Outcome;

/// Configuration for [`ParsePool`]; start from `default()` and
/// override with the chainable setters.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    workers: usize,
    queue_capacity: usize,
    label: String,
    trace: Option<Arc<TraceRecorder>>,
    cache: Option<Arc<CacheCounters>>,
}

impl Default for PoolConfig {
    /// Auto-sized: one worker per available core, queue capacity
    /// twice the worker count, label `"pool"`, tracing off.
    fn default() -> Self {
        PoolConfig {
            workers: 0,
            queue_capacity: 0,
            label: "pool".to_string(),
            trace: None,
            cache: None,
        }
    }
}

impl PoolConfig {
    /// Number of worker threads; `0` (the default) selects
    /// [`std::thread::available_parallelism`].
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Submission-queue capacity — the backpressure bound; `0` (the
    /// default) selects twice the worker count. Sizing guidance: a
    /// couple of jobs per worker keeps workers busy across the
    /// submit/complete handoff; anything much larger only adds queue
    /// latency before rejection kicks in.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Label reported in metrics snapshots — typically the grammar
    /// name, so a multi-pool server gets a per-grammar breakdown.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Attaches a span recorder: every job the pool runs emits a
    /// queue-wait span (submission to dequeue) and an execution span
    /// (dequeue to completion) on its worker's lane. Write the
    /// collected spans out with
    /// [`TraceRecorder::write_chrome_json`]. Off by default; the
    /// untraced path does no timing work beyond the existing latency
    /// metric.
    pub fn trace(mut self, recorder: Arc<TraceRecorder>) -> Self {
        self.trace = Some(recorder);
        self
    }

    /// Attaches a compile cache's counters (from
    /// [`ParserCache::counters`](crate::cache::ParserCache::counters))
    /// so this pool's [`MetricsSnapshot`] reports `cache_hits`,
    /// `cache_misses` and `cache_evictions` alongside its own
    /// counters. Set automatically by
    /// [`ParserCache::pool`](crate::cache::ParserCache::pool);
    /// unattached pools report zeros.
    pub fn cache_counters(mut self, counters: Arc<CacheCounters>) -> Self {
        self.cache = Some(counters);
        self
    }

    fn resolve(&self) -> (usize, usize) {
        let workers = match self.workers {
            0 => thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        };
        let capacity = match self.queue_capacity {
            0 => workers * 2,
            n => n,
        };
        (workers, capacity)
    }
}

/// The bytes of one parse job. `Owned` moves a buffer in; `Shared`
/// submits an `Arc<[u8]>` without copying — the right choice when the
/// same document is parsed repeatedly or the caller keeps the bytes.
#[derive(Clone)]
pub enum JobInput {
    /// A caller-owned buffer, moved into the job.
    Owned(Vec<u8>),
    /// A shared buffer; submission clones the `Arc`, not the bytes.
    Shared(Arc<[u8]>),
}

impl JobInput {
    /// The payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            JobInput::Owned(v) => v,
            JobInput::Shared(a) => a,
        }
    }
}

impl Default for JobInput {
    fn default() -> Self {
        JobInput::Owned(Vec::new())
    }
}

impl AsRef<[u8]> for JobInput {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl fmt::Debug for JobInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobInput::Owned(v) => write!(f, "JobInput::Owned({} bytes)", v.len()),
            JobInput::Shared(a) => write!(f, "JobInput::Shared({} bytes)", a.len()),
        }
    }
}

impl From<Vec<u8>> for JobInput {
    fn from(v: Vec<u8>) -> Self {
        JobInput::Owned(v)
    }
}

impl From<Arc<[u8]>> for JobInput {
    fn from(a: Arc<[u8]>) -> Self {
        JobInput::Shared(a)
    }
}

impl From<&[u8]> for JobInput {
    fn from(b: &[u8]) -> Self {
        JobInput::Owned(b.to_vec())
    }
}

impl From<String> for JobInput {
    fn from(s: String) -> Self {
        JobInput::Owned(s.into_bytes())
    }
}

/// Why a job failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The input did not parse; identical to the error a one-shot
    /// [`Parser::parse`](crate::Parser::parse) of the same bytes
    /// reports.
    Parse(FusedParseError),
    /// A semantic action panicked while running this job. The worker
    /// that ran it has been replaced; the pool is unaffected.
    Panicked(String),
    /// The pool was shut down before this job could be accepted.
    Shutdown,
    /// The result was already consumed by a successful
    /// [`Handle::try_wait`] / [`Handle::wait_timeout`] before
    /// [`Handle::wait`] ran — a caller-side protocol slip, reported
    /// as an error rather than a panic so mixed poll/block drivers
    /// stay total.
    ResultTaken,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Parse(e) => write!(f, "{e}"),
            JobError::Panicked(msg) => write!(f, "semantic action panicked: {msg}"),
            JobError::Shutdown => write!(f, "pool is shut down"),
            JobError::ResultTaken => write!(f, "job result already taken"),
        }
    }
}

impl std::error::Error for JobError {}

/// Why a submission was refused. Every variant hands the input back
/// so the caller can retry (or shed the load) without another copy.
#[derive(Debug)]
pub enum SubmitError {
    /// The queue is full ([`ParsePool::try_submit`] only) — the
    /// backpressure signal. Counted in the `rejected` metric.
    Busy(JobInput),
    /// The pool has been shut down.
    Closed(JobInput),
    /// [`ParsePool::submit_into`]: the handle still holds an
    /// in-flight or unconsumed result.
    HandleBusy(JobInput),
    /// [`StreamJob::feed`]: the previous feed has not completed yet;
    /// chunks of one stream are strictly ordered.
    FeedInFlight(JobInput),
    /// [`StreamJob::feed`]: the stream already finished (completed,
    /// failed, or lost its session to a panic).
    StreamFinished(JobInput),
}

impl SubmitError {
    /// Recovers the input that was not submitted. (Empty for a
    /// refused [`StreamJob::finish`], which carries no bytes.)
    pub fn into_input(self) -> JobInput {
        match self {
            SubmitError::Busy(i)
            | SubmitError::Closed(i)
            | SubmitError::HandleBusy(i)
            | SubmitError::FeedInFlight(i)
            | SubmitError::StreamFinished(i) => i,
        }
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Busy(_) => write!(f, "queue full"),
            SubmitError::Closed(_) => write!(f, "pool is shut down"),
            SubmitError::HandleBusy(_) => write!(f, "handle has an in-flight or unconsumed job"),
            SubmitError::FeedInFlight(_) => write!(f, "previous feed still in flight"),
            SubmitError::StreamFinished(_) => write!(f, "stream already finished"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What one [`StreamJob::feed`] produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FeedStatus<V> {
    /// The chunk was consumed; the stream expects more input (or a
    /// [`StreamJob::finish`]).
    NeedMore,
    /// The parse completed with this value ([`StreamJob::finish`],
    /// or a feed that proved completion impossible to extend).
    Done(V),
}

impl<V> FeedStatus<V> {
    /// The final value, if the stream completed.
    pub fn into_value(self) -> Option<V> {
        match self {
            FeedStatus::NeedMore => None,
            FeedStatus::Done(v) => Some(v),
        }
    }
}

/// The result of a one-shot parse job.
pub type JobHandle<V> = Handle<Result<V, JobError>>;

/// The result of one stream feed.
pub type FeedHandle<V> = Handle<Result<FeedStatus<V>, JobError>>;

// ---------------------------------------------------------------------------
// Completion slots and handles

enum SlotState<T> {
    Pending,
    Ready(T),
    Taken,
}

struct Slot<T> {
    state: Mutex<SlotState<T>>,
    cv: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Arc<Slot<T>> {
        Arc::new(Slot {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        })
    }

    fn fill(&self, value: T) {
        let mut st = self.state.lock().unwrap();
        debug_assert!(
            matches!(*st, SlotState::Pending),
            "completion slot filled twice"
        );
        *st = SlotState::Ready(value);
        drop(st);
        self.cv.notify_all();
    }

    /// Re-arms a consumed slot for reuse; `false` if a job is still
    /// in flight or its result has not been taken.
    fn rearm(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        if matches!(*st, SlotState::Taken) {
            *st = SlotState::Pending;
            true
        } else {
            false
        }
    }
}

/// A completion handle: the poll/wait façade over one submitted job.
///
/// The two instantiations are [`JobHandle`] (one-shot parse jobs,
/// yielding `Result<V, JobError>`) and [`FeedHandle`] (stream feeds,
/// yielding `Result<FeedStatus<V>, JobError>`). Waiting never blocks
/// the pool: results are published by workers into a dedicated slot.
///
/// Async runtimes can drive a handle by polling
/// [`try_wait`](Handle::try_wait) (e.g. from a waker-driven timer)
/// — no executor integration or extra dependency is required.
pub struct Handle<T> {
    slot: Arc<Slot<T>>,
}

impl<T> Handle<T> {
    /// Whether the job has finished (its result may still be
    /// unconsumed).
    pub fn is_done(&self) -> bool {
        !matches!(*self.slot.state.lock().unwrap(), SlotState::Pending)
    }

    /// Takes the result if the job has finished, without blocking.
    /// Returns `None` while in flight — and after the result has
    /// already been taken by an earlier call.
    pub fn try_wait(&mut self) -> Option<T> {
        let mut st = self.slot.state.lock().unwrap();
        if matches!(*st, SlotState::Ready(_)) {
            match std::mem::replace(&mut *st, SlotState::Taken) {
                SlotState::Ready(v) => Some(v),
                _ => unreachable!(),
            }
        } else {
            None
        }
    }

    /// As [`Handle::try_wait`], but waits up to `timeout` for the job
    /// to finish first.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut st = self.slot.state.lock().unwrap();
        loop {
            if matches!(*st, SlotState::Ready(_)) {
                match std::mem::replace(&mut *st, SlotState::Taken) {
                    SlotState::Ready(v) => return Some(v),
                    _ => unreachable!(),
                }
            }
            if matches!(*st, SlotState::Taken) {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.slot.cv.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
    }
}

impl<T> Handle<Result<T, JobError>> {
    /// Blocks until the job finishes and returns its result.
    ///
    /// If the result was already consumed by a successful
    /// [`Handle::try_wait`] / [`Handle::wait_timeout`], returns
    /// [`JobError::ResultTaken`] instead of blocking forever (or
    /// panicking, as earlier versions did).
    pub fn wait(self) -> Result<T, JobError> {
        let mut st = self.slot.state.lock().unwrap();
        loop {
            match std::mem::replace(&mut *st, SlotState::Taken) {
                SlotState::Ready(v) => return v,
                SlotState::Taken => return Err(JobError::ResultTaken),
                SlotState::Pending => {
                    *st = SlotState::Pending;
                    st = self.slot.cv.wait(st).unwrap();
                }
            }
        }
    }
}

impl<T> fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Handle {{ done: {} }}", self.is_done())
    }
}

// ---------------------------------------------------------------------------
// Jobs and the shared pool state

/// Callback form of job completion: invoked on the worker thread as
/// soon as the job finishes.
pub type JobCallback<V> = Box<dyn FnOnce(Result<V, JobError>) + Send + 'static>;

enum ParseDone<V> {
    Slot(Arc<Slot<Result<V, JobError>>>),
    Call(JobCallback<V>),
}

impl<V> ParseDone<V> {
    fn fill(self, result: Result<V, JobError>) {
        match self {
            ParseDone::Slot(slot) => slot.fill(result),
            ParseDone::Call(cb) => cb(result),
        }
    }
}

enum Job<V> {
    Parse {
        input: JobInput,
        done: ParseDone<V>,
        enqueued: Instant,
    },
    Feed {
        stream: Arc<StreamInner<V>>,
        /// `None` signals end of input ([`StreamJob::finish`]).
        chunk: Option<JobInput>,
        done: Arc<Slot<Result<FeedStatus<V>, JobError>>>,
        enqueued: Instant,
    },
}

struct QueueState<V> {
    jobs: VecDeque<Job<V>>,
    open: bool,
}

struct Shared<V> {
    parser: Arc<CompiledParser<V>>,
    queue: Mutex<QueueState<V>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    metrics: Arc<Metrics>,
    trace: Option<Arc<TraceRecorder>>,
    label: String,
    /// Every live worker thread, appended by replacements; drained
    /// (and re-checked) by shutdown.
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

enum Refused {
    Full,
    Closed,
}

impl<V> Shared<V> {
    /// Locks the queue with room for one more job, or reports why it
    /// cannot accept one. Blocking mode waits for space.
    fn lock_for_push(&self, blocking: bool) -> Result<MutexGuard<'_, QueueState<V>>, Refused> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if !q.open {
                return Err(Refused::Closed);
            }
            if q.jobs.len() < self.capacity {
                return Ok(q);
            }
            if !blocking {
                return Err(Refused::Full);
            }
            q = self.not_full.wait(q).unwrap();
        }
    }

    /// Pushes under a guard obtained from `lock_for_push` and wakes a
    /// worker.
    fn push(&self, mut q: MutexGuard<'_, QueueState<V>>, job: Job<V>) {
        q.jobs.push_back(job);
        self.metrics.queue_len(q.jobs.len(), true);
        drop(q);
        self.metrics.job_submitted();
        self.not_empty.notify_one();
    }
}

// ---------------------------------------------------------------------------
// The pool

/// A long-lived pool of parse workers sharing one compiled parser.
///
/// See the [module docs](self) for the full story and an example.
pub struct ParsePool<V> {
    shared: Arc<Shared<V>>,
}

impl<V: Send + 'static> ParsePool<V> {
    /// Spawns `config.workers` threads over the shared compiled
    /// tables. The pool runs until [`ParsePool::shutdown`] or drop.
    pub fn new(parser: Arc<CompiledParser<V>>, config: PoolConfig) -> ParsePool<V> {
        let (workers, capacity) = config.resolve();
        let shared = Arc::new(Shared {
            parser,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(capacity),
                open: true,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            metrics: Arc::new(Metrics::new(
                &config.label,
                workers,
                capacity,
                config.cache.clone(),
            )),
            trace: config.trace,
            label: config.label,
            threads: Mutex::new(Vec::with_capacity(workers)),
        });
        {
            let mut threads = shared.threads.lock().unwrap();
            for ix in 0..workers {
                threads.push(spawn_worker(&shared, ix));
            }
        }
        ParsePool { shared }
    }

    /// Submits one input, blocking while the queue is full — the
    /// cooperative entry point for callers that prefer waiting over
    /// shedding.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] after shutdown.
    pub fn submit(&self, input: impl Into<JobInput>) -> Result<JobHandle<V>, SubmitError> {
        self.submit_inner(input.into(), true)
    }

    /// Submits one input without blocking: if the queue is full the
    /// job is *rejected* with [`SubmitError::Busy`] (and counted in
    /// the `rejected` metric) — the admission-control entry point.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] under backpressure,
    /// [`SubmitError::Closed`] after shutdown; both return the input.
    pub fn try_submit(&self, input: impl Into<JobInput>) -> Result<JobHandle<V>, SubmitError> {
        self.submit_inner(input.into(), false)
    }

    fn submit_inner(&self, input: JobInput, blocking: bool) -> Result<JobHandle<V>, SubmitError> {
        match self.shared.lock_for_push(blocking) {
            Err(Refused::Full) => {
                self.shared.metrics.job_rejected();
                Err(SubmitError::Busy(input))
            }
            Err(Refused::Closed) => Err(SubmitError::Closed(input)),
            Ok(q) => {
                let slot = Slot::new();
                let handle = JobHandle {
                    slot: Arc::clone(&slot),
                };
                self.shared.push(
                    q,
                    Job::Parse {
                        input,
                        done: ParseDone::Slot(slot),
                        enqueued: Instant::now(),
                    },
                );
                Ok(handle)
            }
        }
    }

    /// Re-submits into an existing, already-consumed handle instead
    /// of allocating a new completion slot: with a
    /// [`JobInput::Shared`] input this makes the entire
    /// submit-to-result round trip allocation-free at steady state
    /// (audited in the integration tests). Blocks while the queue is
    /// full.
    ///
    /// # Errors
    ///
    /// [`SubmitError::HandleBusy`] if `handle` has an in-flight job
    /// or an unconsumed result; [`SubmitError::Closed`] after
    /// shutdown.
    pub fn submit_into(
        &self,
        input: impl Into<JobInput>,
        handle: &JobHandle<V>,
    ) -> Result<(), SubmitError> {
        let input = input.into();
        match self.shared.lock_for_push(true) {
            Err(Refused::Full) => unreachable!("blocking push cannot see a full queue"),
            Err(Refused::Closed) => Err(SubmitError::Closed(input)),
            Ok(q) => {
                if !handle.slot.rearm() {
                    return Err(SubmitError::HandleBusy(input));
                }
                self.shared.push(
                    q,
                    Job::Parse {
                        input,
                        done: ParseDone::Slot(Arc::clone(&handle.slot)),
                        enqueued: Instant::now(),
                    },
                );
                Ok(())
            }
        }
    }

    /// Submits with a completion callback instead of a handle: the
    /// callback runs on the worker thread the moment the job
    /// finishes — the hook for executors that want to wake a task
    /// rather than poll. Keep it short; the worker is not serving
    /// anyone while it runs. Blocks while the queue is full.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] after shutdown.
    pub fn submit_with_callback(
        &self,
        input: impl Into<JobInput>,
        callback: JobCallback<V>,
    ) -> Result<(), SubmitError> {
        let input = input.into();
        match self.shared.lock_for_push(true) {
            Err(Refused::Full) => unreachable!("blocking push cannot see a full queue"),
            Err(Refused::Closed) => Err(SubmitError::Closed(input)),
            Ok(q) => {
                self.shared.push(
                    q,
                    Job::Parse {
                        input,
                        done: ParseDone::Call(callback),
                        enqueued: Instant::now(),
                    },
                );
                Ok(())
            }
        }
    }

    /// Opens a streaming job: a suspendable parse whose input arrives
    /// chunk by chunk via [`StreamJob::feed`]. The session state
    /// (automaton state, partial-token tail, line/column) is parked
    /// in the pool between chunks; each chunk is parsed by whichever
    /// worker picks it up, and results are byte-identical to a
    /// one-shot parse of the concatenation.
    pub fn open_stream(&self) -> StreamJob<V> {
        StreamJob {
            shared: Arc::clone(&self.shared),
            inner: Arc::new(StreamInner {
                session: Mutex::new(Some(ParseSession::new())),
                pending: AtomicBool::new(false),
                finished: AtomicBool::new(false),
            }),
        }
    }

    /// Parses a batch through the pool, returning one result per
    /// input in input order — the long-lived-service counterpart of
    /// [`Parser::parse_batch`](crate::Parser::parse_batch): worker
    /// threads and sessions are reused across calls instead of
    /// re-spawned per call. Submission blocks under backpressure, so
    /// batches larger than the queue are fine.
    pub fn parse_batch<I>(&self, inputs: I) -> Vec<Result<V, JobError>>
    where
        I: IntoIterator,
        I::Item: Into<JobInput>,
    {
        let handles: Vec<Option<JobHandle<V>>> = inputs
            .into_iter()
            .map(|input| self.submit(input).ok())
            .collect();
        handles
            .into_iter()
            .map(|h| match h {
                Some(h) => h.wait(),
                None => Err(JobError::Shutdown),
            })
            .collect()
    }

    /// The pool's live metrics; call
    /// [`snapshot()`](Metrics::snapshot) for a reportable copy.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// A shared handle to the live metrics, for exporters that
    /// outlive a borrow — e.g.
    /// [`MetricsEmitter::start`](crate::obs::MetricsEmitter::start).
    pub fn metrics_arc(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.shared.metrics.snapshot().workers
    }

    /// Graceful shutdown: closes the queue, lets the workers drain
    /// every already-accepted job, and joins them. Implied by drop;
    /// provided explicitly so call sites can make the drain visible.
    pub fn shutdown(self) {
        self.close_and_join();
    }
}

impl<V> ParsePool<V> {
    fn close_and_join(&self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.open = false;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        // Replacement workers append to the registry before their
        // predecessor exits, so re-checking after each join round
        // cannot miss one.
        loop {
            let handles: Vec<_> = {
                let mut t = self.shared.threads.lock().unwrap();
                t.drain(..).collect()
            };
            if handles.is_empty() {
                return;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

impl<V> Drop for ParsePool<V> {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

// ---------------------------------------------------------------------------
// Streaming jobs

struct StreamInner<V> {
    /// The suspendable session, parked here between chunks; `None`
    /// only while a worker is advancing it (or after a panic lost
    /// it).
    session: Mutex<Option<ParseSession<V>>>,
    /// One feed in flight at a time: chunk order is the parse order.
    pending: AtomicBool,
    /// Set once the stream completed, failed, or broke; further
    /// feeds are refused at submission.
    finished: AtomicBool,
}

/// One streaming parse multiplexed over the pool: see
/// [`ParsePool::open_stream`].
///
/// Feeds are strictly ordered — a second [`StreamJob::feed`] before
/// the first completes is refused with [`SubmitError::FeedInFlight`]
/// (wait on the returned [`FeedHandle`], or poll it, first). One
/// stream therefore uses at most one worker at a time; concurrency
/// comes from many streams (connections) sharing the pool.
pub struct StreamJob<V> {
    shared: Arc<Shared<V>>,
    inner: Arc<StreamInner<V>>,
}

impl<V: Send + 'static> StreamJob<V> {
    /// Submits the next chunk (blocking while the queue is full).
    ///
    /// The handle yields [`FeedStatus::NeedMore`] when the chunk was
    /// consumed, or the job error that ended the stream.
    ///
    /// # Errors
    ///
    /// [`SubmitError::FeedInFlight`] while the previous feed is
    /// unfinished, [`SubmitError::StreamFinished`] once the stream
    /// ended, [`SubmitError::Closed`] after pool shutdown.
    pub fn feed(&mut self, chunk: impl Into<JobInput>) -> Result<FeedHandle<V>, SubmitError> {
        self.advance(Some(chunk.into()), true)
    }

    /// As [`StreamJob::feed`] without blocking on a full queue:
    /// refused with [`SubmitError::Busy`] instead.
    ///
    /// # Errors
    ///
    /// As [`StreamJob::feed`], plus [`SubmitError::Busy`].
    pub fn try_feed(&mut self, chunk: impl Into<JobInput>) -> Result<FeedHandle<V>, SubmitError> {
        self.advance(Some(chunk.into()), false)
    }

    /// Signals end of input; the handle yields [`FeedStatus::Done`]
    /// with the semantic value (or the parse error).
    ///
    /// # Errors
    ///
    /// As [`StreamJob::feed`].
    pub fn finish(&mut self) -> Result<FeedHandle<V>, SubmitError> {
        self.advance(None, true)
    }

    /// Whether the stream has reached a terminal state (value
    /// produced, parse failed, or session lost to a panic).
    pub fn is_finished(&self) -> bool {
        self.inner.finished.load(Ordering::Acquire)
    }

    fn advance(
        &mut self,
        chunk: Option<JobInput>,
        blocking: bool,
    ) -> Result<FeedHandle<V>, SubmitError> {
        if self.inner.finished.load(Ordering::Acquire) {
            return Err(SubmitError::StreamFinished(chunk.unwrap_or_default()));
        }
        if self.inner.pending.swap(true, Ordering::AcqRel) {
            return Err(SubmitError::FeedInFlight(chunk.unwrap_or_default()));
        }
        match self.shared.lock_for_push(blocking) {
            Err(refused) => {
                self.inner.pending.store(false, Ordering::Release);
                let input = chunk.unwrap_or_default();
                Err(match refused {
                    Refused::Full => {
                        self.shared.metrics.job_rejected();
                        SubmitError::Busy(input)
                    }
                    Refused::Closed => SubmitError::Closed(input),
                })
            }
            Ok(q) => {
                let slot = Slot::new();
                let handle = FeedHandle {
                    slot: Arc::clone(&slot),
                };
                self.shared.push(
                    q,
                    Job::Feed {
                        stream: Arc::clone(&self.inner),
                        chunk,
                        done: slot,
                        enqueued: Instant::now(),
                    },
                );
                Ok(handle)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Workers

fn spawn_worker<V: Send + 'static>(shared: &Arc<Shared<V>>, ix: usize) -> thread::JoinHandle<()> {
    let s = Arc::clone(shared);
    thread::Builder::new()
        .name(format!("flap-serve:{}:{ix}", shared.label))
        .spawn(move || worker_loop(s, ix))
        .expect("spawn parse worker")
}

enum AfterJob {
    Continue,
    /// The worker's own session was poisoned by an unwind; the
    /// caller must replace this worker.
    Replace,
}

fn worker_loop<V: Send + 'static>(shared: Arc<Shared<V>>, ix: usize) {
    let mut session: ParseSession<V> = ParseSession::new();
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    shared.metrics.queue_len(q.jobs.len(), false);
                    break Some(job);
                }
                if !q.open {
                    break None;
                }
                q = shared.not_empty.wait(q).unwrap();
            }
        };
        let Some(job) = job else { return };
        shared.not_full.notify_one();
        match run_job(&shared, &mut session, job, ix) {
            AfterJob::Continue => {}
            AfterJob::Replace => {
                match thread::Builder::new()
                    .name(format!("flap-serve:{}:{ix}", shared.label))
                    .spawn({
                        let s = Arc::clone(&shared);
                        move || worker_loop(s, ix)
                    }) {
                    Ok(h) => {
                        // register before exiting so shutdown's
                        // re-check sees the replacement
                        shared.threads.lock().unwrap().push(h);
                        return;
                    }
                    Err(_) => {
                        // cannot spawn (resource exhaustion): keep
                        // this thread alive with a fresh session
                        // rather than losing a worker
                        session = ParseSession::new();
                    }
                }
            }
        }
    }
}

/// Emits the queue-wait and execution spans for one finished job on
/// worker lane `ix`. `run_start` is `Some` exactly when the pool was
/// configured with a [`TraceRecorder`]; the untraced path costs one
/// `Option` branch per job.
fn trace_job<V>(
    shared: &Shared<V>,
    ix: usize,
    name: &'static str,
    enqueued: Instant,
    run_start: Option<Instant>,
    bytes: u64,
) {
    if let (Some(t), Some(rs)) = (&shared.trace, run_start) {
        let end = Instant::now();
        t.span("queue-wait", ix as u32, enqueued, rs, 0);
        t.span(name, ix as u32, rs, end, bytes);
    }
}

fn run_job<V: Send + 'static>(
    shared: &Shared<V>,
    session: &mut ParseSession<V>,
    job: Job<V>,
    ix: usize,
) -> AfterJob {
    let run_start = shared.trace.as_ref().map(|_| Instant::now());
    match job {
        Job::Parse {
            input,
            done,
            enqueued,
        } => {
            let bytes = input.as_bytes().len();
            let result = catch_unwind(AssertUnwindSafe(|| {
                shared.parser.parse_with(session, input.as_bytes())
            }));
            let latency = enqueued.elapsed().as_micros() as u64;
            trace_job(shared, ix, "parse", enqueued, run_start, bytes as u64);
            match result {
                Ok(Ok(v)) => {
                    shared
                        .metrics
                        .job_finished(Outcome::Completed, bytes, latency);
                    done.fill(Ok(v));
                    AfterJob::Continue
                }
                Ok(Err(e)) => {
                    shared
                        .metrics
                        .job_finished(Outcome::ParseError, bytes, latency);
                    done.fill(Err(JobError::Parse(e)));
                    AfterJob::Continue
                }
                Err(payload) => {
                    shared
                        .metrics
                        .job_finished(Outcome::Panicked, bytes, latency);
                    // count the replacement before waking the waiter,
                    // so a metrics read right after wait() sees it
                    shared.metrics.worker_replaced();
                    done.fill(Err(JobError::Panicked(panic_message(payload))));
                    // the unwind may have left the session stacks
                    // mid-parse: discard the worker along with it
                    AfterJob::Replace
                }
            }
        }
        Job::Feed {
            stream,
            chunk,
            done,
            enqueued,
        } => {
            let bytes = chunk.as_ref().map_or(0, |c| c.as_bytes().len());
            let name = if chunk.is_some() { "feed" } else { "finish" };
            let taken = stream.session.lock().unwrap().take();
            let Some(mut stream_session) = taken else {
                // defensive: unreachable while the `finished` gate
                // holds, but never wedge a caller on a lost session
                stream.finished.store(true, Ordering::Release);
                shared.metrics.job_finished(
                    Outcome::Panicked,
                    bytes,
                    enqueued.elapsed().as_micros() as u64,
                );
                stream.pending.store(false, Ordering::Release);
                done.fill(Err(JobError::Panicked(
                    "stream session lost to an earlier panic".to_string(),
                )));
                return AfterJob::Continue;
            };
            let step = catch_unwind(AssertUnwindSafe(|| match chunk {
                Some(c) => {
                    let mut sp = shared.parser.stream(&mut stream_session);
                    sp.feed(c.as_bytes())
                }
                None => shared.parser.stream(&mut stream_session).finish(),
            }));
            let latency = enqueued.elapsed().as_micros() as u64;
            trace_job(shared, ix, name, enqueued, run_start, bytes as u64);
            match step {
                Ok(step) => {
                    if !matches!(step, Step::NeedMore) {
                        stream.finished.store(true, Ordering::Release);
                    }
                    *stream.session.lock().unwrap() = Some(stream_session);
                    let (outcome, result) = match step {
                        Step::NeedMore => (Outcome::Completed, Ok(FeedStatus::NeedMore)),
                        Step::Done(v) => (Outcome::Completed, Ok(FeedStatus::Done(v))),
                        Step::Err(e) => (Outcome::ParseError, Err(JobError::Parse(e))),
                    };
                    shared.metrics.job_finished(outcome, bytes, latency);
                    // unset pending BEFORE filling the slot: a waiter
                    // wakes on fill and may feed again immediately
                    stream.pending.store(false, Ordering::Release);
                    done.fill(result);
                    AfterJob::Continue
                }
                Err(payload) => {
                    // the stream's session is poisoned (and dropped
                    // with `stream_session`); the worker's own
                    // session was not involved
                    stream.finished.store(true, Ordering::Release);
                    shared
                        .metrics
                        .job_finished(Outcome::Panicked, bytes, latency);
                    stream.pending.store(false, Ordering::Release);
                    done.fill(Err(JobError::Panicked(panic_message(payload))));
                    AfterJob::Continue
                }
            }
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flap_cfe::Cfe;
    use flap_lex::LexerBuilder;

    fn word_pool(action: fn(&[u8]) -> i64, config: PoolConfig) -> ParsePool<i64> {
        let mut b = LexerBuilder::new();
        let word = b.token("word", "[a-z]+").unwrap();
        b.skip(" ").unwrap();
        let lexer = b.build().unwrap();
        let g: Cfe<i64> =
            Cfe::fix(|x| Cfe::eps_with(|| 0).or(Cfe::tok_with(word, action).then(x, |a, b| a + b)));
        let parser = crate::Parser::compile(lexer, &g).unwrap();
        parser.serve(config)
    }

    #[test]
    fn submit_wait_roundtrip() {
        let pool = word_pool(|_| 1, PoolConfig::default().workers(2).label("words"));
        let h = pool.submit(&b"a b c"[..]).unwrap();
        assert_eq!(h.wait(), Ok(3));
        let mut h = pool.submit(&b"a b"[..]).unwrap();
        // poll until done
        let r = loop {
            if let Some(r) = h.try_wait() {
                break r;
            }
            thread::yield_now();
        };
        assert_eq!(r, Ok(2));
        let m = pool.metrics().snapshot();
        assert_eq!(m.submitted, 2);
        assert_eq!(m.completed, 2);
        assert_eq!(m.bytes_parsed, 8);
    }

    #[test]
    fn parse_errors_match_one_shot() {
        let pool = word_pool(|_| 1, PoolConfig::default().workers(1));
        let h = pool.submit(&b"a 7"[..]).unwrap();
        match h.wait() {
            Err(JobError::Parse(e)) => {
                assert!(e.line_col().0 >= 1);
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        assert_eq!(pool.metrics().snapshot().parse_errors, 1);
    }

    #[test]
    fn callback_completion_runs_on_worker() {
        let pool = word_pool(|_| 1, PoolConfig::default().workers(1));
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit_with_callback(
            &b"x y z"[..],
            Box::new(move |r| {
                tx.send((r, thread::current().name().map(String::from)))
                    .unwrap();
            }),
        )
        .unwrap();
        let (r, name) = rx.recv().unwrap();
        assert_eq!(r, Ok(3));
        assert!(name.unwrap().starts_with("flap-serve:"), "worker thread");
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        let pool = word_pool(|_| 1, PoolConfig::default().workers(2).queue_capacity(64));
        let handles: Vec<_> = (0..32).map(|_| pool.submit(&b"a b"[..]).unwrap()).collect();
        pool.shutdown();
        for h in handles {
            assert_eq!(h.wait(), Ok(2), "accepted jobs must complete before join");
        }
    }

    #[test]
    fn submit_after_shutdown_is_closed() {
        let pool = word_pool(|_| 1, PoolConfig::default().workers(1));
        let shared = Arc::clone(&pool.shared);
        pool.shutdown();
        let pool = ParsePool { shared };
        match pool.submit(&b"a"[..]) {
            Err(SubmitError::Closed(input)) => assert_eq!(input.as_bytes(), b"a"),
            other => panic!("expected Closed, got {other:?}"),
        }
        // forget the resurrected wrapper's second drop bookkeeping:
        // close_and_join is idempotent, so a plain drop is fine
        drop(pool);
    }

    #[test]
    fn stream_job_matches_one_shot() {
        let pool = word_pool(|_| 1, PoolConfig::default().workers(2));
        let mut s = pool.open_stream();
        for chunk in [&b"ab cd"[..], b" ef", b"gh"] {
            assert_eq!(s.feed(chunk).unwrap().wait(), Ok(FeedStatus::NeedMore));
        }
        assert!(!s.is_finished());
        assert_eq!(s.finish().unwrap().wait(), Ok(FeedStatus::Done(3)));
        assert!(s.is_finished());
        match s.feed(&b"more"[..]) {
            Err(SubmitError::StreamFinished(_)) => {}
            other => panic!("expected StreamFinished, got {other:?}"),
        }
    }

    #[test]
    fn handle_reuse_via_submit_into() {
        let pool = word_pool(|_| 1, PoolConfig::default().workers(1));
        let input: Arc<[u8]> = Arc::from(&b"a b c d"[..]);
        let h = pool.submit(input.clone()).unwrap();
        assert_eq!(h.wait(), Ok(4));
        // handle consumed by wait(): the slot is gone with it, so use
        // the try_wait flavor to keep the handle alive across jobs
        let mut h = pool.submit(input.clone()).unwrap();
        assert_eq!(h.wait_timeout(Duration::from_secs(10)), Some(Ok(4)));
        for _ in 0..3 {
            pool.submit_into(input.clone(), &h).unwrap();
            assert_eq!(h.wait_timeout(Duration::from_secs(10)), Some(Ok(4)));
        }
        // busy handle: re-arm must be refused while a result is pending
        pool.submit_into(input.clone(), &h).unwrap();
        match pool.submit_into(input.clone(), &h) {
            Err(SubmitError::HandleBusy(_)) => {}
            Ok(()) => panic!("double submit_into on one handle must be refused"),
            Err(other) => panic!("expected HandleBusy, got {other:?}"),
        }
        assert_eq!(h.wait_timeout(Duration::from_secs(10)), Some(Ok(4)));
    }
}
