//! Pieces shared by the three workloads: the cascade configuration, the
//! metric table, latency capture, verdict checking against the oracle, and
//! the per-layer summary of a traced engine run.

use crate::oracle::{content_key, Finding, Oracle};
use crate::trace::{self, Span, JOB_SPAN};
use lv_cir::ast::Function;
use lv_core::{
    BatchObserver, EngineConfig, EngineReuse, Equivalence, Job, JobReport, PipelineConfig, Stage,
};
use lv_interp::{ChecksumClass, ChecksumConfig};
use lv_tv::{SolverBudget, TvConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The symbolic budgets of the reduced Table 3 sweep (the `smt_reuse` /
/// `smt_simplify` benches): 1k / 10k / 4k conflicts, one Alive2 chunk. The
/// checksum stage keeps the paper's harness (n = 100, 3 trials).
pub fn cascade_pipeline() -> PipelineConfig {
    PipelineConfig {
        checksum: ChecksumConfig::default(),
        tv: TvConfig {
            alive2_budget: SolverBudget {
                max_conflicts: 1_000,
                max_clauses: 200_000,
            },
            cunroll_budget: SolverBudget {
                max_conflicts: 10_000,
                max_clauses: 1_000_000,
            },
            spatial_budget: SolverBudget {
                max_conflicts: 4_000,
                max_clauses: 500_000,
            },
            alive2_chunks: 1,
            ..TvConfig::default()
        },
    }
}

/// The full cascade with blast memo on (`lv-sweep`'s default reuse layer).
pub fn cascade_config(threads: usize) -> EngineConfig {
    EngineConfig::full(cascade_pipeline())
        .with_threads(threads)
        .with_reuse(EngineReuse {
            memo: true,
            ..EngineReuse::default()
        })
}

/// A SplitMix64 stream: the benchmark's own seeded randomness.
#[derive(Debug, Clone)]
pub struct Rng(pub u64);

impl Rng {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Logical CPUs of this machine.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// An ordered metric table: `(name, value, unit)`.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric (non-finite values are recorded as 0).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Records, per job index, when the job started and finished (ns since a
/// shared origin) — the only observer on an untraced run.
#[derive(Debug)]
pub struct LatencyObserver {
    origin: Instant,
    started: Vec<AtomicU64>,
    finished: Vec<AtomicU64>,
}

impl LatencyObserver {
    /// Room for `jobs` job indices, timed from `origin`.
    pub fn new(jobs: usize, origin: Instant) -> LatencyObserver {
        LatencyObserver {
            origin,
            started: (0..jobs).map(|_| AtomicU64::new(0)).collect(),
            finished: (0..jobs).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Per-job `job_started → job_finished` durations, in ms.
    pub fn job_ms(&self) -> Vec<f64> {
        self.started
            .iter()
            .zip(&self.finished)
            .map(|(s, f)| {
                (f.load(Ordering::Relaxed) as f64 - s.load(Ordering::Relaxed) as f64) / 1e6
            })
            .collect()
    }

    /// Per-job time from the origin to the verdict, in ms.
    pub fn verdict_ms(&self) -> Vec<f64> {
        self.finished
            .iter()
            .map(|f| f.load(Ordering::Relaxed) as f64 / 1e6)
            .collect()
    }
}

impl BatchObserver for LatencyObserver {
    fn job_started(&self, index: usize, _job: &Job) {
        self.started[index].store(self.now(), Ordering::Relaxed);
    }

    fn job_finished(&self, index: usize, _report: &JobReport) {
        self.finished[index].store(self.now(), Ordering::Relaxed);
    }
}

/// What checking a run's verdicts against the oracle found.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct VerdictCheck {
    /// Verdicts checked.
    pub checked: u64,
    /// `Equivalent` verdicts a held-out input refutes (one that satisfies the
    /// divisibility assumption, when the loops give any), plus decided
    /// verdicts contradicting another verdict for the same content.
    pub wrong: u64,
    /// `Equivalent` verdicts refuted only at trip counts outside the
    /// divisibility assumption: candidates without a scalar epilogue.
    pub equivalent_off_assumption: u64,
    /// `NotEquivalent` verdicts the held-out inputs do not reproduce.
    pub unconfirmed_not_equivalent: u64,
    /// Checksum-`Plausible` candidates the positional oracle refutes: the
    /// by-name harness passed them vacuously or on too few inputs.
    pub vacuous_plausible: u64,
    /// Verdicts whose scalar ran on no held-out input.
    pub unchecked: u64,
    /// The first few refutations, for the run log.
    pub examples: Vec<String>,
}

/// Checks verdicts one at a time, remembering the decided verdict per
/// content so contradicting verdicts for identical content are caught too.
#[derive(Debug, Default)]
pub struct VerdictChecker {
    oracle: Oracle,
    decided: HashMap<(u64, u64), Equivalence>,
    /// The running result.
    pub result: VerdictCheck,
}

impl VerdictChecker {
    /// A fresh checker with an empty oracle memo.
    pub fn new() -> VerdictChecker {
        VerdictChecker::default()
    }

    /// Checks one final verdict.
    pub fn check(
        &mut self,
        label: &str,
        scalar: &Function,
        candidate: &Function,
        verdict: Equivalence,
        checksum: Option<ChecksumClass>,
    ) {
        let r = &mut self.result;
        r.checked += 1;
        let finding = self.oracle.check(scalar, candidate);
        let refuted = matches!(finding, Finding::Refuted { .. });
        match (&finding, verdict) {
            (Finding::Refuted { detail }, Equivalence::Equivalent) => {
                let line = match self.oracle.check_assumed(scalar, candidate) {
                    Finding::Agrees { .. } => {
                        r.equivalent_off_assumption += 1;
                        format!(
                            "{}: Equivalent under the divisibility assumption, but off it {}",
                            label, detail
                        )
                    }
                    Finding::Refuted { detail } => {
                        r.wrong += 1;
                        format!(
                            "{}: Equivalent, but under the divisibility assumption {}",
                            label, detail
                        )
                    }
                    Finding::Unchecked => {
                        r.wrong += 1;
                        format!("{}: Equivalent, but {}", label, detail)
                    }
                };
                if r.examples.len() < 8 {
                    r.examples.push(line);
                }
            }
            (Finding::Agrees { .. }, Equivalence::NotEquivalent) => {
                r.unconfirmed_not_equivalent += 1
            }
            (Finding::Unchecked, _) => r.unchecked += 1,
            _ => {}
        }
        if refuted && checksum == Some(ChecksumClass::Plausible) {
            r.vacuous_plausible += 1;
        }
        if verdict != Equivalence::Inconclusive {
            let key = content_key(scalar, candidate);
            let first = *self.decided.entry(key).or_insert(verdict);
            if first != verdict {
                r.wrong += 1;
                if r.examples.len() < 8 {
                    r.examples.push(format!(
                        "{}: {:?} contradicts {:?} for identical content",
                        label, verdict, first
                    ));
                }
            }
        }
    }
}

/// The sorted verdict multiset of a run: `(label, verdict, stage, checksum)`.
pub type VerdictSet = Vec<(String, Equivalence, Stage, Option<ChecksumClass>)>;

/// Builds the sorted verdict multiset of engine reports.
pub fn verdict_set<'a>(reports: impl IntoIterator<Item = &'a JobReport>) -> VerdictSet {
    let mut set: VerdictSet = reports
        .into_iter()
        .map(|r| (r.label.clone(), r.verdict, r.stage, r.checksum))
        .collect();
    set.sort_by(|a, b| {
        (&a.0, a.1 as u8, a.2 as u8, a.3.map(|c| c as u8)).cmp(&(
            &b.0,
            b.1 as u8,
            b.2 as u8,
            b.3.map(|c| c as u8),
        ))
    });
    set
}

/// `(jobs, decided, equivalent)` counts of a verdict stream.
pub fn decided_counts(verdicts: impl IntoIterator<Item = Equivalence>) -> (u64, u64, u64) {
    let (mut jobs, mut decided, mut equivalent) = (0, 0, 0);
    for v in verdicts {
        jobs += 1;
        if v != Equivalence::Inconclusive {
            decided += 1;
        }
        if v == Equivalence::Equivalent {
            equivalent += 1;
        }
    }
    (jobs, decided, equivalent)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

const SYMBOLIC: [(Stage, &str); 3] = [
    (Stage::Alive2, "alive2"),
    (Stage::CUnroll, "cunroll"),
    (Stage::Splitting, "splitting"),
];

/// Per-layer metrics of a traced engine run (`spans` holds only the
/// engine's job and stage spans): stage self times and
/// conclusiveness (`tv`), solver effort (`smt`), checksum work (`interp`)
/// and worker-pool accounting (`core.engine`). `[lo, hi]` is the traced
/// batch window in tracer nanoseconds. Also returns the coverage ratio:
/// (self time of every span + per-worker idle) / (workers × window).
pub fn engine_layers(spans: &[Span], reports: &[&JobReport], lo: u64, hi: u64) -> (Metrics, f64) {
    let mut m = Metrics::default();
    let self_ns = trace::self_time_by_name(spans);
    let ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;

    let mut attempted: HashMap<Stage, u64> = HashMap::new();
    let mut conclusive: HashMap<Stage, u64> = HashMap::new();
    let (mut conflicts, mut clauses) = (0u64, 0u64);
    let (mut plausible, mut mismatch, mut cannot_compile) = (0u64, 0u64, 0u64);
    let (mut blast_hits, mut blast_misses, mut eliminated, mut preprocess_us) = (0, 0, 0, 0);
    for report in reports {
        for t in &report.traces {
            *attempted.entry(t.stage).or_default() += 1;
            if t.conclusive {
                *conclusive.entry(t.stage).or_default() += 1;
            }
            conflicts += t.conflicts;
            clauses += t.clauses;
            if t.stage == Stage::Checksum {
                match report.checksum {
                    Some(ChecksumClass::Plausible) => plausible += 1,
                    Some(ChecksumClass::NotEquivalent) => mismatch += 1,
                    Some(ChecksumClass::CannotCompile) => cannot_compile += 1,
                    _ => {}
                }
            }
        }
        blast_hits += report.reuse.blast_hits;
        blast_misses += report.reuse.blast_misses;
        eliminated += report.simplify.vars_eliminated;
        preprocess_us += report.simplify.preprocess_micros;
    }
    let mut tv_ms = 0.0;
    for (stage, short) in SYMBOLIC {
        let name = format!("tv.{}", short);
        let stage_ms = ms(&name);
        tv_ms += stage_ms;
        m.put(&format!("{}_ms", name), stage_ms, "ms");
        m.put(
            &format!("{}_conclusive_ratio", name),
            ratio(
                conclusive.get(&stage).copied().unwrap_or(0) as f64,
                attempted.get(&stage).copied().unwrap_or(0) as f64,
            ),
            "ratio",
        );
    }
    m.put("smt.conflicts", conflicts as f64, "count");
    m.put("smt.clauses", clauses as f64, "count");
    m.put(
        "smt.conflicts_per_s",
        ratio(conflicts as f64, tv_ms / 1e3),
        "1/s",
    );
    m.put(
        "smt.blast_hit_ratio",
        ratio(blast_hits as f64, (blast_hits + blast_misses) as f64),
        "ratio",
    );
    m.put("smt.vars_eliminated", eliminated as f64, "count");
    m.put("smt.preprocess_ms", preprocess_us as f64 / 1e3, "ms");

    let checksum_runs = attempted.get(&Stage::Checksum).copied().unwrap_or(0);
    m.put(
        "interp.checksum_us_per_job",
        ratio(ms("interp.checksum") * 1e3, checksum_runs as f64),
        "us",
    );
    m.put("interp.plausible", plausible as f64, "count");
    m.put("interp.mismatch", mismatch as f64, "count");
    m.put("interp.cannot_compile", cannot_compile as f64, "count");

    let jobs: Vec<&Span> = spans.iter().filter(|s| s.name == JOB_SPAN).collect();
    let mut workers: HashMap<u32, u64> = HashMap::new();
    for job in &jobs {
        let last = workers.entry(job.thread).or_insert(0);
        *last = (*last).max(job.end_ns);
    }
    let window = (hi - lo) as f64;
    let busy: u64 = jobs.iter().map(|s| s.duration_ns()).sum();
    m.put(
        "core.engine.busy_ratio",
        ratio(busy as f64, window * workers.len() as f64),
        "ratio",
    );
    m.put(
        "core.engine.overhead_us_per_job",
        ratio(ms(JOB_SPAN) * 1e3, jobs.len() as f64),
        "us",
    );
    let tail: u64 = workers.values().map(|&last| hi.saturating_sub(last)).sum();
    m.put("core.engine.tail_idle_ms", tail as f64 / 1e6, "ms");

    let accounted: u64 = trace::self_times(spans).iter().sum::<u64>()
        + trace::idle_by_thread(spans, lo, hi).values().sum::<u64>();
    let coverage = ratio(accounted as f64, window * workers.len() as f64);
    (m, coverage)
}
