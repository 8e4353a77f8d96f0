//! Streaming observation of batch runs.
//!
//! A [`BatchObserver`] receives callbacks from
//! [`VerificationEngine::run_batch_observed`](crate::VerificationEngine::run_batch_observed)
//! *as the worker pool makes progress*: when a job is claimed, after each
//! cascade stage, and when a job's verdict is final. This is what lets a
//! long sweep render its table incrementally instead of sitting silent until
//! the whole [`BatchReport`](crate::BatchReport) is assembled — every
//! experiment driver in [`crate::experiments`] has a `*_with` variant that
//! forwards its engine events to a caller-supplied observer.
//!
//! Callbacks are invoked from worker threads (hence `Send + Sync + &self`)
//! and in *completion* order, which is nondeterministic under `threads > 1`;
//! the job `index` parameter identifies the job within its batch. Observers
//! must not block for long — the worker that fired the callback cannot claim
//! its next job until the callback returns.

use crate::engine::{Job, JobReport, StageTrace};
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Callbacks fired by the engine while a batch is running.
///
/// All methods have empty defaults, so an observer only implements the
/// events it cares about.
pub trait BatchObserver: Send + Sync {
    /// A worker claimed job `index` and is about to run its cascade.
    fn job_started(&self, index: usize, job: &Job) {
        let _ = (index, job);
    }

    /// One cascade stage of job `index` finished (conclusive or not). Not
    /// fired for cache hits, which run no stages.
    fn stage_finished(&self, index: usize, job: &Job, trace: &StageTrace) {
        let _ = (index, job, trace);
    }

    /// Job `index` has its final verdict.
    fn job_finished(&self, index: usize, report: &JobReport) {
        let _ = (index, report);
    }
}

/// The do-nothing observer behind the non-observed engine entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl BatchObserver for NoopObserver {}

/// Counts events and cache hits; useful for tests and for asserting that a
/// warmed cache runs zero stages.
#[derive(Debug, Default)]
pub struct CountingObserver {
    /// Jobs started (cache hits are started too).
    pub started: AtomicUsize,
    /// Stage executions observed across all jobs.
    pub stages: AtomicUsize,
    /// Jobs finished.
    pub finished: AtomicUsize,
    /// Jobs answered from the verdict cache.
    pub cache_hits: AtomicUsize,
}

impl CountingObserver {
    /// A fresh counter.
    pub fn new() -> CountingObserver {
        CountingObserver::default()
    }

    /// Stage executions observed so far.
    pub fn stage_count(&self) -> usize {
        self.stages.load(Ordering::Relaxed)
    }

    /// Jobs answered from the verdict cache so far.
    pub fn cache_hit_count(&self) -> usize {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Jobs finished so far.
    pub fn finished_count(&self) -> usize {
        self.finished.load(Ordering::Relaxed)
    }
}

impl BatchObserver for CountingObserver {
    fn job_started(&self, _index: usize, _job: &Job) {
        self.started.fetch_add(1, Ordering::Relaxed);
    }

    fn stage_finished(&self, _index: usize, _job: &Job, _trace: &StageTrace) {
        self.stages.fetch_add(1, Ordering::Relaxed);
    }

    fn job_finished(&self, _index: usize, report: &JobReport) {
        self.finished.fetch_add(1, Ordering::Relaxed);
        if report.cache_hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Renders one line per finished job to a writer, in completion order — the
/// incremental view of a sweep's table.
///
/// ```text
/// [ 3/62] s112: Equivalent @ C-Unroll (102ms)
/// [ 4/62] s000: Equivalent @ Alive2 (cached)
/// ```
#[derive(Debug)]
pub struct StreamObserver<W: Write + Send> {
    out: Mutex<W>,
    total: usize,
    done: AtomicUsize,
}

impl<W: Write + Send> StreamObserver<W> {
    /// Streams to `out`; `total` is the expected job count (used only for
    /// the `[done/total]` prefix).
    pub fn new(out: W, total: usize) -> StreamObserver<W> {
        StreamObserver {
            out: Mutex::new(out),
            total,
            done: AtomicUsize::new(0),
        }
    }

    /// Consumes the observer and returns the writer.
    pub fn into_inner(self) -> W {
        self.out.into_inner().unwrap()
    }
}

impl<W: Write + Send> BatchObserver for StreamObserver<W> {
    fn job_finished(&self, _index: usize, report: &JobReport) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let suffix = if report.cache_hit {
            "(cached)".to_string()
        } else {
            format!("({}ms)", report.wall.as_millis())
        };
        let mut out = self.out.lock().unwrap();
        // A failed write must not poison the batch; progress output is
        // best-effort.
        let _ = writeln!(
            out,
            "[{:>2}/{}] {}: {:?} @ {} {}",
            done,
            self.total,
            report.label,
            report.verdict,
            report.stage.label(),
            suffix
        );
    }
}

/// Invokes a closure for every finished job — the adapter that lets a
/// caller stream verdicts somewhere custom (the verification service
/// forwards each one onto its client's socket) without writing an observer
/// type.
pub struct CallbackObserver<F: Fn(usize, &JobReport) + Send + Sync> {
    callback: F,
}

impl<F: Fn(usize, &JobReport) + Send + Sync> CallbackObserver<F> {
    /// Wraps `callback`, which receives `(index, report)` for each
    /// finished job, in completion order, from worker threads.
    pub fn new(callback: F) -> CallbackObserver<F> {
        CallbackObserver { callback }
    }
}

impl<F: Fn(usize, &JobReport) + Send + Sync> BatchObserver for CallbackObserver<F> {
    fn job_finished(&self, index: usize, report: &JobReport) {
        (self.callback)(index, report);
    }
}

impl<F: Fn(usize, &JobReport) + Send + Sync> std::fmt::Debug for CallbackObserver<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CallbackObserver")
    }
}

/// Forwards every event to two observers — how the experiment drivers
/// combine their internal accumulators with the caller's observer.
#[derive(Debug, Clone, Copy)]
pub struct TeeObserver<'a>(pub &'a dyn BatchObserver, pub &'a dyn BatchObserver);

impl BatchObserver for TeeObserver<'_> {
    fn job_started(&self, index: usize, job: &Job) {
        self.0.job_started(index, job);
        self.1.job_started(index, job);
    }

    fn stage_finished(&self, index: usize, job: &Job, trace: &StageTrace) {
        self.0.stage_finished(index, job, trace);
        self.1.stage_finished(index, job, trace);
    }

    fn job_finished(&self, index: usize, report: &JobReport) {
        self.0.job_finished(index, report);
        self.1.job_finished(index, report);
    }
}

/// Forwards events with each local batch index replaced by
/// `indices[local]` — used by the engine's streaming fallback and the shard
/// runner, which run a sub-batch whose positions in the original job order
/// are arbitrary.
#[derive(Debug, Clone, Copy)]
pub struct IndexMapObserver<'a> {
    inner: &'a dyn BatchObserver,
    indices: &'a [usize],
}

impl<'a> IndexMapObserver<'a> {
    /// Wraps `inner`, mapping local index `i` to `indices[i]`. Events with
    /// a local index outside `indices` panic — the mapping must cover the
    /// sub-batch.
    pub fn new(inner: &'a dyn BatchObserver, indices: &'a [usize]) -> IndexMapObserver<'a> {
        IndexMapObserver { inner, indices }
    }
}

impl BatchObserver for IndexMapObserver<'_> {
    fn job_started(&self, index: usize, job: &Job) {
        self.inner.job_started(self.indices[index], job);
    }

    fn stage_finished(&self, index: usize, job: &Job, trace: &StageTrace) {
        self.inner.stage_finished(self.indices[index], job, trace);
    }

    fn job_finished(&self, index: usize, report: &JobReport) {
        self.inner.job_finished(self.indices[index], report);
    }
}

impl std::fmt::Debug for dyn BatchObserver + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn BatchObserver")
    }
}
