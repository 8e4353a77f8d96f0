//! In-memory span recording and self-time arithmetic.
//!
//! The benchmark records spans from its own code only: a [`Tracer`] is a
//! [`BatchObserver`] (job span from `job_started` to `job_finished`, one
//! stage span per `stage_finished`, starting at the previous boundary of
//! the same job), and [`Tracer::time`] wraps direct calls into a layer
//! (client `submit`, `structural_hash`, `VerdictCache::get`, ...). Spans are
//! kept in memory and only summarized (or written out) when the run ends.

use lv_core::{BatchObserver, Job, JobReport, Stage, StageTrace};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified span name, e.g. `core.engine.job` or `tv.alive2`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recording, if any.
    pub parent: Option<usize>,
    /// The job (or batch) the span belongs to.
    pub job: u64,
    /// Small per-process id of the thread that recorded the span.
    pub thread: u32,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_ID: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's small numeric id.
pub fn thread_id() -> u32 {
    THREAD_ID.with(|id| *id)
}

/// The span name of a cascade stage: checksum testing runs in the
/// interpreter layer, the three bounded translation-validation stages in
/// the `tv` layer.
pub fn stage_span_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Checksum => "interp.checksum",
        Stage::Alive2 => "tv.alive2",
        Stage::CUnroll => "tv.cunroll",
        Stage::Splitting => "tv.splitting",
    }
}

/// Job span name.
pub const JOB_SPAN: &str = "core.engine.job";

/// Records spans in memory; doubles as an engine observer.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    job_offset: u64,
    spans: Mutex<Vec<Span>>,
    /// Open job spans: job index → (span index, last boundary in ns).
    open: Mutex<HashMap<usize, (usize, u64)>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            job_offset: 0,
            spans: Mutex::new(Vec::new()),
            open: Mutex::new(HashMap::new()),
        }
    }

    /// Offsets the job ids of subsequently observed engine events, so
    /// several batches observed by one tracer keep distinct job ids.
    pub fn set_job_offset(&mut self, offset: u64) {
        self.job_offset = offset;
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        let mut spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking worker");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            job,
            thread: thread_id(),
        });
        spans.len() - 1
    }

    /// Runs `f`, recording it as a span named `name`.
    pub fn time<T>(&self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, start, end, None, job);
        out
    }

    /// Consumes the tracer, returning every recorded span.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span recorder poisoned by a panicking worker")
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl BatchObserver for Tracer {
    fn job_started(&self, index: usize, _job: &Job) {
        let now = self.now_ns();
        // Placeholder end; fixed up in `job_finished`.
        let span = self.record(JOB_SPAN, now, now, None, self.job_offset + index as u64);
        self.open
            .lock()
            .expect("span recorder poisoned by a panicking worker")
            .insert(index, (span, now));
    }

    fn stage_finished(&self, index: usize, _job: &Job, trace: &StageTrace) {
        let now = self.now_ns();
        let (parent, since) = {
            let mut open = self
                .open
                .lock()
                .expect("span recorder poisoned by a panicking worker");
            let entry = open.get_mut(&index).expect("stage of an unstarted job");
            let since = entry.1;
            entry.1 = now;
            (entry.0, since)
        };
        self.record(
            stage_span_name(trace.stage),
            since,
            now,
            Some(parent),
            self.job_offset + index as u64,
        );
    }

    fn job_finished(&self, index: usize, _report: &JobReport) {
        let now = self.now_ns();
        let (span, _) = self
            .open
            .lock()
            .expect("span recorder poisoned by a panicking worker")
            .remove(&index)
            .expect("finish of an unstarted job");
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking worker")[span]
            .end_ns = now;
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_ns() - covered(span.start_ns, span.end_ns, kids))
        .collect()
}

/// Self time summed per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut out = HashMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(span.name).or_insert(0) += own;
    }
    out
}

/// Per-thread idle time inside `[lo, hi]`: the part of the window that no
/// top-level span recorded by that thread covers.
pub fn idle_by_thread(spans: &[Span], lo: u64, hi: u64) -> HashMap<u32, u64> {
    let mut busy: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent.is_none()) {
        busy.entry(span.thread)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    busy.into_iter()
        .map(|(thread, mut intervals)| (thread, (hi - lo) - covered(lo, hi, &mut intervals)))
        .collect()
}

/// Writes spans as JSON lines (`name,start_ns,end_ns,parent,job,thread`).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{},\"thread\":{}}}",
            span.name,
            span.start_ns,
            span.end_ns,
            span.parent.map_or("null".to_string(), |p| p.to_string()),
            span.job,
            span.thread
        )?;
    }
    out.flush()
}
