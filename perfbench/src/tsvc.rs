//! `tsvc_cascade`: the Table 3 regime. Every TSVC kernel the rule-based
//! vectorizer supports, times (its rule-based candidate + three seeded
//! synthetic completions), through the full cascade at the reduced sweep
//! budgets, blast memo on, verdict cache cold, one worker per CPU.

use crate::common::{
    cascade_config, decided_counts, engine_layers, nproc, peak_rss_mb, ratio, verdict_set,
    LatencyObserver, Metrics, VerdictChecker,
};
use crate::oracle::content_key;
use crate::stats;
use crate::trace::Tracer;
use crate::{Round, RunOutput};
use lv_agents::{sample_completion_cell, vectorize_correct, LlmConfig};
use lv_core::{BatchReport, Job, VerdictCache, VerificationEngine};
use std::sync::Arc;
use std::time::Instant;

/// Seeded synthetic completions per kernel, on top of the rule-based one.
pub const COMPLETIONS: usize = 3;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 15;

/// The job list: kernel-major, `name#rule` then `name#0..COMPLETIONS`.
/// Completion `j` of supported kernel `i` is the seeded cell `(i, j)`.
pub fn jobs(seed: u64) -> Vec<Job> {
    let llm = LlmConfig {
        seed,
        ..LlmConfig::default()
    };
    let mut jobs = Vec::new();
    let supported = lv_tsvc::KERNELS.iter().filter_map(|kernel| {
        let scalar = kernel.function();
        let rule = vectorize_correct(&scalar).ok()?;
        Some((kernel.name, scalar, rule))
    });
    for (i, (name, scalar, rule)) in supported.enumerate() {
        jobs.push(Job::new(format!("{}#rule", name), scalar.clone(), rule));
        for j in 0..COMPLETIONS {
            let completion = sample_completion_cell(&scalar, &llm, i, j);
            jobs.push(Job::new(
                format!("{}#{}", name, j),
                scalar.clone(),
                completion.candidate,
            ));
        }
    }
    jobs
}

/// A fresh engine with a cold in-memory verdict cache.
fn cold_engine() -> VerificationEngine {
    VerificationEngine::new(cascade_config(nproc()).with_cache(Arc::new(VerdictCache::in_memory())))
}

/// Runs the workload.
pub fn run(seed: u64, trace: bool) -> RunOutput {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let jobs = jobs(seed);
        let engine = cold_engine();
        setups.push(start.elapsed().as_secs_f64());
        prepared = Some((jobs, engine));
    }
    let (jobs, engine) = prepared.expect("at least one set-up");

    let origin = Instant::now();
    let latency = LatencyObserver::new(jobs.len(), origin);
    let report = engine.run_batch_observed(&jobs, &latency);
    let wall = origin.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    let mut out = RunOutput::new(jobs.len() as u64);
    let verdict_ms = stats::sorted(latency.verdict_ms());
    let (n, decided, equivalent) = decided_counts(report.jobs.iter().map(|r| r.verdict));
    out.put_rounds(&[Round {
        jobs: n,
        seconds: wall,
        latency_ms: verdict_ms,
    }]);
    out.e2e
        .put("decided_ratio", ratio(decided as f64, n as f64), "ratio");
    out.e2e.put("setup_s", stats::median(&setups), "s");
    out.e2e.put("peak_rss_mb", rss, "MB");
    out.layers.put(
        "equivalent_ratio",
        ratio(equivalent as f64, n as f64),
        "ratio",
    );

    let mut checker = VerdictChecker::new();
    for (job, r) in jobs.iter().zip(&report.jobs) {
        checker.check(&r.label, &job.scalar, &job.candidate, r.verdict, r.checksum);
    }
    out.check = checker.result;

    let threads = report.threads;
    out.record("jobs", jobs.len());
    out.record("kernels", jobs.len() / (1 + COMPLETIONS));
    out.record("completions_per_kernel", COMPLETIONS);
    out.record("engine_threads", threads);
    // The calling thread only waits inside `run_batch`.
    out.record("benchmark_threads", 0);
    out.record(
        "budgets",
        "alive2 1k, cunroll 10k, splitting 4k conflicts; alive2_chunks 1",
    );
    out.record("checksum", "ChecksumConfig::default (n=100, 3 trials)");
    out.record("reuse", "blast memo");
    out.record("cache_hits", report.cache_hits);
    // Stage runs beyond the first for one content: an identical job started
    // while its twin was still running, so it missed the cache.
    let mut keys = std::collections::HashSet::new();
    let mut ran = 0u64;
    for (job, r) in jobs.iter().zip(&report.jobs) {
        keys.insert(content_key(&job.scalar, &job.candidate));
        ran += u64::from(!r.cache_hit);
    }
    let redundant = ran - keys.len() as u64;
    out.record("redundant_runs", redundant);
    out.layers
        .put("core.engine.redundant_runs", redundant as f64, "count");
    out.record("latency", "per-job time from batch start to verdict");
    let span_ms = stats::sorted(latency.job_ms());
    out.record(
        "job_span_ms_p50_p90",
        format!(
            "{:.3} {:.3}",
            stats::percentile(&span_ms, 50.0),
            stats::percentile(&span_ms, 90.0)
        ),
    );

    if trace {
        let traced = traced_run(&jobs, wall);
        if traced.0 != verdict_set(&report.jobs) {
            out.trace_mismatch = true;
        }
        out.layers.extend(traced.1);
    }
    out
}

/// A second sweep on a fresh cold engine with the span recorder attached;
/// returns its verdict multiset and per-layer metrics.
fn traced_run(jobs: &[Job], untraced_wall: f64) -> (crate::common::VerdictSet, Metrics) {
    let engine = cold_engine();
    let tracer = Tracer::new();
    let lo = tracer.now_ns();
    let report: BatchReport = engine.run_batch_observed(jobs, &tracer);
    let hi = tracer.now_ns();
    let verdicts = verdict_set(&report.jobs);
    let spans = tracer.into_spans();
    crate::write_trace("tsvc_cascade", &spans);
    let reports: Vec<_> = report.jobs.iter().collect();
    let (mut layers, coverage) = engine_layers(&spans, &reports, lo, hi);
    let traced_wall = (hi - lo) as f64 / 1e9;
    layers.put("trace.coverage_ratio", coverage, "ratio");
    layers.put(
        "trace.overhead_ratio",
        traced_wall / untraced_wall - 1.0,
        "ratio",
    );
    (verdicts, layers)
}
