//! A persistent parse service: a long-lived worker pool with
//! admission control, panic isolation and built-in metrics.
//!
//! The pool is the only place the library spawns threads, and
//! [`ParsePool::parse_batch`] is its one batch API. A server fielding
//! many small requests needs more than a batch: thread spawn cost
//! must be amortized, concurrency must be bounded, overload must be
//! *rejected* rather than buffered without limit, and a panicking
//! semantic action must kill one request — not the process.
//! [`ParsePool`] provides exactly that substrate:
//!
//! * **Worker pool.** Up to N long-lived worker threads share the
//!   compiled tables behind an `Arc`. No thread exists at first: a
//!   wake-up (below) starts one while fewer than N have started, so a
//!   pool whose callers submit one job at a time and wait never starts
//!   any, and overlapping load grows it to N. The pool owns N reusable
//!   [`ParseSession`]s, and a job starts only with an idle one, so at
//!   most N parses run at once. After warm-up a parse allocates
//!   nothing — the same steady state as
//!   [`parse_with`](flap_staged::CompiledParser::parse_with) — and a
//!   round trip allocates one completion slot (plus a copy of the
//!   bytes when the input is a borrowed `&[u8]`).
//! * **Admission control.** The submission queue is bounded.
//!   [`ParsePool::submit`] blocks until space frees up;
//!   [`ParsePool::try_submit`] returns [`SubmitError::Busy`]
//!   immediately — explicit backpressure a caller can convert into
//!   load shedding, and a `rejected` counter that makes overload
//!   visible.
//! * **One-shot completion.** Submission returns a [`JobHandle`];
//!   the worker fills its slot once and [`JobHandle::wait`] blocks
//!   until then and takes the result. A caller that waits on the job
//!   at the queue's front while a session is idle runs that job
//!   itself instead, exactly as a worker would. Jobs start in
//!   submission order. Input that arrives in chunks is parsed
//!   in-process with [`Parser::stream`](crate::Parser::stream).
//! * **Wake-ups only when needed.** A lone job, the only one queued,
//!   wakes no worker: it is left to its caller's `wait`, so a small
//!   request costs no thread wake-up at all. The submission that
//!   queues a second job wakes two workers, one for each job, and
//!   every later one wakes one; a submitter that finds the queue full
//!   wakes one before it blocks or is refused. A lone job on an idle
//!   pool therefore starts when its caller waits, when another job
//!   queues, or at shutdown: a caller that submits one job, works,
//!   and only then waits gets no overlap. [`ParsePool::parse_batch`]
//!   submits every input before it waits on any.
//! * **Panic isolation.** A panicking semantic action fails its own
//!   job with [`JobError::Panicked`]; the session the unwind poisoned
//!   is replaced by a fresh one, and the thread that ran the job keeps
//!   running. The pool and every other job keep going.
//! * **Graceful shutdown.** Dropping the pool (or calling
//!   [`ParsePool::shutdown`]) closes the queue, drains every
//!   already-accepted job, joins the started workers and frees the
//!   sessions. If no worker ever started, the dropping thread runs the
//!   queued jobs itself.
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
//! // submit bytes, wait for the result: when the job is next in line
//! // and a session is idle, wait() parses it on this thread
//! let handle = pool.submit(&b"hello world"[..]).unwrap();
//! assert_eq!(handle.wait(), Ok(2));
//!
//! // shared inputs avoid the copy: Arc<[u8]> submissions are zero-copy
//! let doc: Arc<[u8]> = Arc::from(&b"one two three"[..]);
//! assert_eq!(pool.submit(doc).unwrap().wait(), Ok(3));
//!
//! // a parse error fails its own job, as a one-shot parse would
//! assert!(matches!(pool.submit(&b"a 7"[..]).unwrap().wait(), Err(JobError::Parse(_))));
//!
//! let m = pool.metrics().snapshot();
//! assert_eq!((m.completed, m.parse_errors, m.panicked), (2, 1, 0));
//! pool.shutdown(); // drains and joins; also implied by drop
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Instant;

use flap_fuse::FusedParseError;
use flap_staged::{CompiledParser, ParseSession};

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
        }
    }
}

impl PoolConfig {
    /// The most worker threads the pool starts, and its number of
    /// parse sessions; `0` (the default) selects
    /// [`std::thread::available_parallelism`]. Threads start on demand
    /// (see the [module docs](self)), so a pool whose callers wait on
    /// each job in turn starts none.
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
    /// (dequeue to completion) on its worker's lane, or on lane
    /// `workers` (one past the last worker, named `caller`) when its
    /// waiting caller ran it. Write the collected spans out with
    /// [`TraceRecorder::write_chrome_json`]. Off by default; the
    /// untraced path does no timing work beyond the always-on latency,
    /// queue-wait and service histograms.
    pub fn trace(mut self, recorder: Arc<TraceRecorder>) -> Self {
        self.trace = Some(recorder);
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
    /// A semantic action panicked while running this job. The session
    /// that ran it has been replaced; the pool is unaffected.
    Panicked(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Parse(e) => write!(f, "{e}"),
            JobError::Panicked(msg) => write!(f, "semantic action panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Why a submission was refused. It hands the input back so the
/// caller can retry (or shed the load) without another copy.
#[derive(Debug)]
pub enum SubmitError {
    /// The queue is full ([`ParsePool::try_submit`] only) — the
    /// backpressure signal. Counted in the `rejected` metric.
    Busy(JobInput),
}

impl SubmitError {
    /// Recovers the input that was not submitted.
    pub fn into_input(self) -> JobInput {
        let SubmitError::Busy(input) = self;
        input
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let SubmitError::Busy(_) = self;
        write!(f, "queue full")
    }
}

impl std::error::Error for SubmitError {}

// ---------------------------------------------------------------------------
// Jobs, their completion slots and handles

/// Where a worker leaves one job's result: filled once by the worker,
/// taken once by [`JobHandle::wait`]. A job its waiting caller runs
/// itself bypasses the slot.
struct Slot<V> {
    result: Mutex<Option<Result<V, JobError>>>,
    filled: Condvar,
}

/// Nothing panics while holding a slot's lock, so it is never
/// poisoned.
const SLOT_LOCK: &str = "completion slot lock poisoned";

impl<V> Slot<V> {
    fn fill(&self, result: Result<V, JobError>) {
        *self.result.lock().expect(SLOT_LOCK) = Some(result);
        self.filled.notify_one();
    }
}

struct Job<V> {
    input: JobInput,
    done: Arc<Slot<V>>,
    enqueued: Instant,
}

/// The pending result of one submitted job.
///
/// Waiting never blocks the pool: the worker publishes the result
/// into a slot of this job's own, and [`JobHandle::wait`] takes it.
pub struct JobHandle<V> {
    slot: Arc<Slot<V>>,
    shared: Arc<Shared<V>>,
}

impl<V> JobHandle<V> {
    /// Returns the job's result once it finishes. If the job is still
    /// next in line and a session is idle, the calling thread runs it
    /// itself, exactly as a worker would; a lone job on an idle pool,
    /// whose submission woke no worker, runs this way. Otherwise this
    /// blocks until a worker has run it.
    pub fn wait(self) -> Result<V, JobError> {
        if let Some(result) = self.shared.run_if_next(&self.slot) {
            return result;
        }
        let guard = self.slot.result.lock().expect(SLOT_LOCK);
        let mut result = self
            .slot
            .filled
            .wait_while(guard, |r| r.is_none())
            .expect(SLOT_LOCK);
        result.take().expect("wait_while returns a filled slot")
    }
}

impl<V> fmt::Debug for JobHandle<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JobHandle")
    }
}

// ---------------------------------------------------------------------------
// The shared pool state

struct QueueState<V> {
    jobs: VecDeque<Job<V>>,
    /// The sessions no job is using. A job starts only with one of
    /// them, so at most `workers` parses run at once.
    idle: Vec<ParseSession<V>>,
    /// Submitters blocked on `not_full`; a job start wakes one only
    /// when this is non-zero.
    blocked: usize,
    /// The lanes of the workers not started yet, `started..workers`.
    /// A wake-up takes the next one under this lock, so two submitters
    /// never start more than `workers` threads, and starts that worker
    /// instead of notifying `not_empty`.
    unstarted: Range<usize>,
    open: bool,
}

impl<V> QueueState<V> {
    /// Takes the front job together with an idle session, if there
    /// are both, and says whether a blocked submitter waits for the
    /// slot this frees.
    fn start(&mut self, metrics: &Metrics) -> Option<(Job<V>, ParseSession<V>, bool)> {
        if self.jobs.is_empty() {
            return None;
        }
        let session = self.idle.pop()?;
        let job = self.jobs.pop_front()?;
        metrics.queue_len(self.jobs.len(), false);
        Some((job, session, self.blocked > 0))
    }
}

struct Shared<V> {
    parser: Arc<CompiledParser<V>>,
    queue: Mutex<QueueState<V>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// The trace lane of jobs their waiting callers run: one past the
    /// last worker.
    caller_lane: usize,
    metrics: Arc<Metrics>,
    trace: Option<Arc<TraceRecorder>>,
}

impl<V> Shared<V> {
    /// Runs the job behind `slot` on the calling thread if it is at
    /// the queue's front and a session is idle — the job a worker
    /// would take next — and returns its result. Neither a worker's
    /// wake-up nor the caller's own then lies on the job's critical
    /// path.
    fn run_if_next(&self, slot: &Arc<Slot<V>>) -> Option<Result<V, JobError>> {
        let (job, mut session, unblock) = {
            let mut q = self.queue.lock().unwrap();
            if !q.jobs.front().is_some_and(|j| Arc::ptr_eq(&j.done, slot)) {
                return None;
            }
            q.start(&self.metrics)?
        };
        if unblock {
            self.not_full.notify_one();
        }
        let result = run_job(self, &mut session, &job, self.caller_lane);
        let queued = {
            let mut q = self.queue.lock().unwrap();
            let queued = !q.jobs.is_empty();
            // a closed, drained pool runs no more jobs: free the session
            if q.open || queued {
                q.idle.push(session);
            }
            queued
        };
        // a worker may be waiting for this session
        if queued {
            self.not_empty.notify_one();
        }
        Some(result)
    }
}

// ---------------------------------------------------------------------------
// The pool

/// A long-lived pool of parse workers sharing one compiled parser.
///
/// See the [module docs](self) for the full story and an example.
pub struct ParsePool<V> {
    shared: Arc<Shared<V>>,
    /// The workers started so far.
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl<V: Send + 'static> ParsePool<V> {
    /// Creates `config.workers` sessions over the shared compiled
    /// tables, but no thread: a worker starts only when a wake-up
    /// needs one, so a pool whose callers submit one job at a time and
    /// wait never starts any. The pool runs until
    /// [`ParsePool::shutdown`] or drop.
    pub fn new(parser: Arc<CompiledParser<V>>, config: PoolConfig) -> ParsePool<V> {
        let (workers, capacity) = config.resolve();
        if let Some(t) = &config.trace {
            t.set_caller_lane(workers as u32);
        }
        let shared = Arc::new(Shared {
            parser,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(capacity),
                idle: (0..workers).map(|_| ParseSession::new()).collect(),
                blocked: 0,
                unstarted: 0..workers,
                open: true,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            caller_lane: workers,
            metrics: Arc::new(Metrics::new(&config.label, workers, capacity)),
            trace: config.trace,
        });
        ParsePool {
            shared,
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Carries out a wake-up decided under the queue lock, after it
    /// is released: starts the worker for `lane`, or notifies a
    /// parked one.
    fn wake(&self, lane: Option<usize>) {
        match lane {
            Some(lane) => self.start_worker(lane),
            None => self.shared.not_empty.notify_one(),
        }
    }

    /// Starts the worker thread for `lane`, which a wake-up claimed.
    fn start_worker(&self, lane: usize) {
        let s = Arc::clone(&self.shared);
        let worker = thread::Builder::new()
            .name(format!("flap-serve:{}:{lane}", self.shared.metrics.label))
            .spawn(move || worker_loop(&s, lane))
            .expect("spawn parse worker");
        // nothing panics while holding this lock
        self.threads
            .lock()
            .expect("worker list lock poisoned")
            .push(worker);
    }

    /// Submits one input, blocking while the queue is full — the
    /// cooperative entry point for callers that prefer waiting over
    /// shedding. A job submitted to an idle pool with nothing else
    /// queued wakes no worker: it starts when its caller waits, when
    /// another job queues, or at shutdown (see the [module
    /// docs](self)).
    ///
    /// # Errors
    ///
    /// None: a blocking submission always enqueues. The `Result`
    /// mirrors [`ParsePool::try_submit`].
    pub fn submit(&self, input: impl Into<JobInput>) -> Result<JobHandle<V>, SubmitError> {
        Ok(self.enqueue(input.into()))
    }

    /// Submits one input without blocking: if the queue is full the
    /// job is *rejected* with [`SubmitError::Busy`] (and counted in
    /// the `rejected` metric) — the admission-control entry point. A
    /// rejection first wakes a worker, so the queued jobs start even
    /// if their callers have not waited yet. Jobs start as for
    /// [`ParsePool::submit`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] under backpressure, returning the input.
    pub fn try_submit(&self, input: impl Into<JobInput>) -> Result<JobHandle<V>, SubmitError> {
        let input = input.into();
        let mut q = self.shared.queue.lock().unwrap();
        if q.jobs.len() >= self.shared.capacity {
            // a full queue may be one lone job whose caller has not
            // waited yet: a worker must start it
            let lane = q.unstarted.next();
            drop(q);
            self.wake(lane);
            self.shared.metrics.job_rejected();
            return Err(SubmitError::Busy(input));
        }
        Ok(self.push(q, input))
    }

    /// Enqueues `input`, blocking while the queue is full. Before each
    /// block it wakes a worker, as `try_submit` does before `Busy`.
    fn enqueue(&self, input: JobInput) -> JobHandle<V> {
        let mut q = self.shared.queue.lock().unwrap();
        while q.jobs.len() >= self.shared.capacity {
            if let Some(lane) = q.unstarted.next() {
                drop(q);
                self.start_worker(lane);
                // the new worker may have started a job before this
                // submitter was counted as blocked: look again
                q = self.shared.queue.lock().unwrap();
                if q.jobs.len() < self.shared.capacity {
                    break;
                }
            } else {
                self.shared.not_empty.notify_one();
            }
            q.blocked += 1;
            q = self.shared.not_full.wait(q).unwrap();
            q.blocked -= 1;
        }
        self.push(q, input)
    }

    /// Appends `input` to the queue `q` guards. A lone job wakes no
    /// worker: it is left to its caller's `wait`, to the next worker
    /// that finishes a job, or to a later push. The push that makes the
    /// queue two long wakes two workers, one for each job, and every
    /// later push wakes one; a wake-up starts a worker while fewer than
    /// `workers` have started.
    fn push(&self, mut q: MutexGuard<'_, QueueState<V>>, input: JobInput) -> JobHandle<V> {
        let shared = &*self.shared;
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            filled: Condvar::new(),
        });
        q.jobs.push_back(Job {
            input,
            done: Arc::clone(&slot),
            enqueued: Instant::now(),
        });
        let queued = q.jobs.len();
        shared.metrics.queue_len(queued, true);
        let wakes = [queued > 1, queued == 2].map(|w| w.then(|| q.unstarted.next()));
        drop(q);
        shared.metrics.job_submitted();
        for lane in wakes.into_iter().flatten() {
            self.wake(lane);
        }
        JobHandle {
            slot,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Parses a batch through the pool, returning one result per
    /// input in input order — the library's one batch API. Worker
    /// threads and sessions are reused across calls. A panicking
    /// semantic action fails only its own input, with
    /// [`JobError::Panicked`]. Submission blocks under backpressure,
    /// so batches larger than the queue are fine.
    pub fn parse_batch<I>(&self, inputs: I) -> Vec<Result<V, JobError>>
    where
        I: IntoIterator,
        I::Item: Into<JobInput>,
    {
        let handles: Vec<JobHandle<V>> = inputs
            .into_iter()
            .map(|input| self.enqueue(input.into()))
            .collect();
        handles.into_iter().map(JobHandle::wait).collect()
    }

    /// The pool's live metrics; call
    /// [`snapshot()`](Metrics::snapshot) for a reportable copy.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// A shared handle to the live metrics, for exporters that
    /// outlive a borrow — e.g. `flap_serve::MetricsEmitter`.
    pub fn metrics_arc(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Graceful shutdown: closes the queue, lets the workers drain
    /// every already-accepted job, and joins them. Implied by drop;
    /// provided explicitly so call sites can make the drain visible.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl<V> Drop for ParsePool<V> {
    /// Closes the queue and joins the workers once they have drained
    /// it; if no worker ever started, this thread drains it itself, on
    /// the caller lane. Submitting needs `&self`, so nothing can enqueue
    /// or start a worker meanwhile. Then frees the idle sessions:
    /// handles still outstanding keep the shared state alive, but not
    /// the sessions' stacks.
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap().open = false;
        let threads = self
            .threads
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if threads.is_empty() {
            worker_loop(&self.shared, self.shared.caller_lane);
        } else {
            self.shared.not_empty.notify_all();
            for h in threads.drain(..) {
                let _ = h.join();
            }
        }
        self.shared.queue.lock().unwrap().idle.clear();
    }
}

// ---------------------------------------------------------------------------
// Workers

/// Runs queued jobs on trace lane `lane` until the pool closes and its
/// queue is drained.
fn worker_loop<V>(shared: &Shared<V>, lane: usize) {
    let mut q = shared.queue.lock().unwrap();
    loop {
        if let Some((job, mut session, unblock)) = q.start(&shared.metrics) {
            drop(q);
            if unblock {
                shared.not_full.notify_one();
            }
            let result = run_job(shared, &mut session, &job, lane);
            job.done.fill(result);
            // no wake-up needed: this loop takes the next job itself
            q = shared.queue.lock().unwrap();
            q.idle.push(session);
        } else if q.open || !q.jobs.is_empty() {
            q = shared.not_empty.wait(q).unwrap();
        } else {
            // another worker may still wait for a session to start the
            // last jobs with; once they have drained, only this wakes it
            drop(q);
            shared.not_empty.notify_all();
            return;
        }
    }
}

/// Parses one job on trace lane `lane` and returns its result,
/// recording its metrics first: its outcome, queue wait and service
/// time. Workers and waiting callers both run jobs through here. A
/// panicking action replaces `session`, whose stacks the unwind may
/// have left mid-parse. When the pool was configured with a
/// [`TraceRecorder`], the job also emits a queue-wait span and a
/// `parse` span; the untraced path costs one `Option` branch per job.
fn run_job<V>(
    shared: &Shared<V>,
    session: &mut ParseSession<V>,
    job: &Job<V>,
    lane: usize,
) -> Result<V, JobError> {
    let started = Instant::now();
    let bytes = job.input.as_bytes().len();
    let result = catch_unwind(AssertUnwindSafe(|| {
        shared.parser.parse_with(session, job.input.as_bytes())
    }));
    let finished = Instant::now();
    shared.metrics.job_timed(
        (started - job.enqueued).as_micros() as u64,
        (finished - started).as_micros() as u64,
    );
    if let Some(t) = &shared.trace {
        t.span("queue-wait", lane as u32, job.enqueued, started, 0);
        t.span("parse", lane as u32, started, finished, bytes as u64);
    }
    let (outcome, result) = match result {
        Ok(Ok(v)) => (Outcome::Completed, Ok(v)),
        Ok(Err(e)) => (Outcome::ParseError, Err(JobError::Parse(e))),
        Err(payload) => {
            *session = ParseSession::new();
            shared.metrics.session_replaced();
            (
                Outcome::Panicked,
                Err(JobError::Panicked(panic_message(payload))),
            )
        }
    };
    let latency = (finished - job.enqueued).as_micros() as u64;
    shared.metrics.job_finished(outcome, bytes, latency);
    result
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
        assert_eq!(pool.submit(&b"a b"[..]).unwrap().wait(), Ok(2));
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
    fn shutdown_drains_accepted_jobs() {
        let pool = word_pool(|_| 1, PoolConfig::default().workers(2).queue_capacity(64));
        let handles: Vec<_> = (0..32).map(|_| pool.submit(&b"a b"[..]).unwrap()).collect();
        pool.shutdown();
        for h in handles {
            assert_eq!(h.wait(), Ok(2), "accepted jobs must complete before join");
        }
    }

    /// The worker threads `pool` has started, checked against the
    /// lanes its wake-ups claimed.
    fn started(pool: &ParsePool<i64>) -> usize {
        let threads = pool.threads.lock().unwrap().len();
        assert_eq!(threads, pool.shared.queue.lock().unwrap().unstarted.start);
        threads
    }

    fn words(n: usize) -> Vec<u8> {
        "a ".repeat(n).into_bytes()
    }

    #[test]
    fn callers_that_wait_start_no_thread() {
        let pool = word_pool(|_| 1, PoolConfig::default().workers(2));
        for n in 0..200 {
            assert_eq!(
                pool.submit(words(n % 7)).unwrap().wait(),
                Ok((n % 7) as i64)
            );
        }
        assert_eq!(started(&pool), 0, "a lone job started a worker");
        assert_eq!(pool.metrics().snapshot().completed, 200);
    }

    #[test]
    fn a_batch_starts_at_most_workers_threads() {
        let pool = word_pool(|_| 1, PoolConfig::default().workers(2));
        for _ in 0..3 {
            let results = pool.parse_batch((0..64).map(|n| words(n % 5)));
            let expected: Vec<_> = (0..64).map(|n| Ok((n % 5) as i64)).collect();
            assert_eq!(results, expected);
            assert_eq!(started(&pool), 2);
        }
    }

    #[test]
    fn shutdown_runs_a_lone_job_when_no_worker_started() {
        let pool = word_pool(|_| 1, PoolConfig::default().workers(2));
        drop(pool.submit(&b"a b"[..]).unwrap());
        assert_eq!(started(&pool), 0);
        let metrics = pool.metrics_arc();
        pool.shutdown();
        assert_eq!(metrics.snapshot().completed, 1, "shutdown dropped the job");
    }

    #[test]
    fn shutdown_frees_the_sessions_outstanding_handles_outlive() {
        let pool = word_pool(|_| 1, PoolConfig::default().workers(2));
        let handle = pool.submit(&b"a b"[..]).unwrap();
        let shared = Arc::clone(&handle.shared);
        pool.shutdown();
        assert!(shared.queue.lock().unwrap().idle.is_empty());
        // With no idle session a wait cannot run the job itself, so a
        // shutdown that left it queued would block forever: wait from
        // a helper thread, with a deadline.
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = thread::spawn(move || tx.send(handle.wait()).unwrap());
        let waited = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(waited, Ok(Ok(2)), "the job was still queued after shutdown");
        waiter.join().unwrap();
    }
}
