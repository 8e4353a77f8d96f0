//! # lv-perfbench — the repository's benchmark
//!
//! One program, three workloads, each exercising the public APIs of
//! `lv_core`, `lv_agents`, `lv_interp`, `lv_tv` and `lv_cir` without
//! changing them:
//!
//! * [`tsvc`] — `tsvc_cascade`, the Table 3 sweep through the full cascade;
//! * [`passk`] — `passk_checksum`, Figure 5's seeded completions through a
//!   checksum-only engine;
//! * [`daemon`] — `daemon_mixed`, a loopback verification service serving
//!   a mixed hit/miss closed loop.
//!
//! Every run checks its verdicts against the concrete [`oracle`]. A plain
//! run reports the end-to-end metrics; a traced run ([`trace`]) adds the
//! per-layer ones. See `NOTES.md` for why each workload exists.

pub mod common;
pub mod daemon;
pub mod oracle;
pub mod passk;
pub mod stats;
pub mod trace;
pub mod tsvc;

use common::{Metrics, VerdictCheck};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["tsvc_cascade", "passk_checksum", "daemon_mixed"];

/// The end-to-end metrics every plain run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("jobs_per_s", "1/s"),
    ("latency_ms_p90", "ms"),
    ("decided_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer a workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("tv.alive2_ms", "ms"),
    ("tv.cunroll_ms", "ms"),
    ("tv.splitting_ms", "ms"),
    ("tv.alive2_conclusive_ratio", "ratio"),
    ("tv.cunroll_conclusive_ratio", "ratio"),
    ("tv.splitting_conclusive_ratio", "ratio"),
    ("smt.conflicts", "count"),
    ("smt.clauses", "count"),
    ("smt.conflicts_per_s", "1/s"),
    ("smt.blast_hit_ratio", "ratio"),
    ("smt.vars_eliminated", "count"),
    ("smt.preprocess_ms", "ms"),
    ("interp.checksum_us_per_job", "us"),
    ("interp.plausible", "count"),
    ("interp.mismatch", "count"),
    ("interp.cannot_compile", "count"),
    ("interp.vacuous_plausible", "count"),
    ("agents.gen_us_per_completion", "us"),
    ("core.engine.busy_ratio", "ratio"),
    ("core.engine.overhead_us_per_job", "us"),
    ("core.engine.tail_idle_ms", "ms"),
    ("core.engine.redundant_runs", "count"),
    ("cir.hash_us_per_job", "us"),
    ("core.cache.get_us", "us"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.open_ms", "ms"),
    ("core.cache.persist_ms", "ms"),
    ("core.service.submit_us_per_job", "us"),
    ("core.service.inprocess_us_per_job", "us"),
    ("core.service.overhead_x", "x"),
    ("core.service.redundant_runs", "count"),
    ("core.service.stages", "count"),
    ("core.service.dedupe_hits", "count"),
    ("equivalent_ratio", "ratio"),
    ("pass_at_1", "ratio"),
    ("pass_at_10", "ratio"),
    ("wrong_verdicts", "count"),
    ("failed_ratio", "ratio"),
    ("oracle.checked", "count"),
    ("oracle.unchecked", "count"),
    ("oracle.unconfirmed_not_equivalent", "count"),
    ("oracle.equivalent_off_assumption", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.client_span_ratio", "ratio"),
    ("trace.latency_tail_samples", "count"),
];

/// The percentile of round throughputs that [`RunOutput::put_rounds`]
/// reports (its complement for latencies).
pub const BEST_ROUNDS: f64 = 95.0;

/// Measurement rounds per second of `--seconds` on the workloads that
/// measure in rounds (`passk_checksum`, `daemon_mixed`): half-second
/// rounds, short enough that some fall between bursts of host load.
pub const ROUNDS_PER_SECOND: usize = 2;

/// One measurement round: jobs answered, the seconds they took, and the
/// latency samples (ascending, ms).
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Jobs answered in the round.
    pub jobs: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Ascending latency samples, in ms.
    pub latency_ms: Vec<f64>,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted (jobs).
    pub attempted: u64,
    /// Operations that failed: typed errors, panics, missing verdicts.
    pub failed: u64,
    /// The oracle's findings.
    pub check: VerdictCheck,
    /// Whether the traced run's verdict multiset differed from the plain
    /// run's.
    pub trace_mismatch: bool,
    /// End-to-end metrics (plain run).
    pub e2e: Metrics,
    /// Per-layer metrics (traced run).
    pub layers: Metrics,
    /// The reproducibility record: `(key, value)` pairs.
    pub record: Vec<(String, String)>,
}

impl RunOutput {
    /// An output for `attempted` operations.
    pub fn new(attempted: u64) -> RunOutput {
        RunOutput {
            attempted,
            ..RunOutput::default()
        }
    }

    /// Adds a reproducibility-record entry.
    pub fn record(&mut self, key: &str, value: impl std::fmt::Display) {
        self.record.push((key.to_string(), value.to_string()));
    }

    /// Adds `jobs_per_s` and the latency percentiles (p50, p90, p99) from
    /// per-round values: throughput is the [`BEST_ROUNDS`]-th percentile of
    /// the rounds' throughputs, each latency percentile the
    /// (100 − [`BEST_ROUNDS`])-th percentile of the rounds' values — with 30
    /// rounds, the second-best round. Interference on a shared host only
    /// ever slows a round down, and it comes and goes within seconds, so
    /// among many short rounds the least disturbed ones are a steady
    /// estimate of what the code can do (the rule `timeit` uses), while a
    /// change to the code still moves every round. Also
    /// records the per-round values, the per-round sample count and which
    /// percentile is the tail of record (the highest with at least ten
    /// samples beyond it in one round).
    pub fn put_rounds(&mut self, rounds: &[Round]) {
        let throughput: Vec<f64> = rounds
            .iter()
            .map(|r| common::ratio(r.jobs as f64, r.seconds))
            .collect();
        self.e2e.put(
            "jobs_per_s",
            stats::percentile(&stats::sorted(throughput.clone()), BEST_ROUNDS),
            "1/s",
        );
        let listed: Vec<String> = throughput.iter().map(|v| format!("{:.1}", v)).collect();
        self.record("round_jobs_per_s", listed.join(" "));
        for q in [50.0, 90.0, 99.0] {
            let name = format!("latency_ms_p{}", q as u32);
            let per_round: Vec<f64> = rounds
                .iter()
                .map(|r| stats::percentile(&r.latency_ms, q))
                .collect();
            let listed: Vec<String> = per_round.iter().map(|v| format!("{:.4}", v)).collect();
            self.record(&format!("round_{}", name), listed.join(" "));
            self.e2e.put(
                &name,
                stats::percentile(&stats::sorted(per_round), 100.0 - BEST_ROUNDS),
                "ms",
            );
        }
        let samples = rounds.iter().map(|r| r.latency_ms.len()).min().unwrap_or(0);
        let tail = stats::tail_percentile(samples);
        self.record("rounds", rounds.len());
        self.record("latency_samples_per_round", samples);
        self.record("latency_tail_of_record", format!("p{}", tail));
        self.layers.put(
            "trace.latency_tail_samples",
            stats::samples_beyond(samples, tail) as f64,
            "count",
        );
    }

    /// Whether every output was right: no wrong verdict, no failure, and
    /// traced and plain runs agreeing.
    pub fn correct(&self) -> bool {
        self.check.wrong == 0 && self.failed == 0 && !self.trace_mismatch
    }

    /// The per-layer metrics in [`PER_LAYER`] order, completed with the
    /// oracle counts; layers this workload bypasses read 0.
    pub fn per_layer(&self) -> Metrics {
        let mut m = Metrics::default();
        for (name, unit) in PER_LAYER {
            let value = match name {
                "wrong_verdicts" => self.check.wrong as f64,
                "failed_ratio" => common::ratio(self.failed as f64, self.attempted as f64),
                "interp.vacuous_plausible" => self.check.vacuous_plausible as f64,
                "oracle.checked" => self.check.checked as f64,
                "oracle.unchecked" => self.check.unchecked as f64,
                "oracle.unconfirmed_not_equivalent" => self.check.unconfirmed_not_equivalent as f64,
                "oracle.equivalent_off_assumption" => self.check.equivalent_off_assumption as f64,
                "latency_ms_p50" | "latency_ms_p99" => self.e2e.get(name).unwrap_or(0.0),
                _ => self.layers.get(name).unwrap_or(0.0),
            };
            m.put(name, value, unit);
        }
        m
    }
}

/// Directory for the benchmark's scratch files and traces: the
/// `LV_PERFBENCH_WORK` environment variable, else `.perfbench_work`.
pub fn workdir() -> std::path::PathBuf {
    std::env::var_os("LV_PERFBENCH_WORK")
        .map(Into::into)
        .unwrap_or_else(|| ".perfbench_work".into())
}

/// Writes a traced run's spans to `<workdir>/trace-<workload>.jsonl`.
pub fn write_trace(workload: &str, spans: &[trace::Span]) {
    let dir = workdir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| trace::write_spans(&dir.join(format!("trace-{}.jsonl", workload)), spans));
    if let Err(e) = written {
        eprintln!("perfbench: could not write spans: {}", e);
    }
}
