//! `passk_checksum`: the Table 2 / Figure 5 regime. All TSVC kernels × `k`
//! seeded completions, streamed by `overlapped_pass_at_k` into a
//! checksum-only engine. No SMT runs at all: `agents` (generation),
//! `interp` (the checksum harness) and per-job engine overhead do the work.

use crate::common::{
    decided_counts, engine_layers, peak_rss_mb, ratio, verdict_set, LatencyObserver, VerdictChecker,
};
use crate::stats;
use crate::trace::Tracer;
use crate::{Round, RunOutput, ROUNDS_PER_SECOND};
use lv_agents::{sample_completion_cell, LlmConfig};
use lv_cir::ast::Function;
use lv_core::{
    overlapped_pass_at_k_observed, pass_at_k_curve, BatchObserver, EngineConfig, VerificationEngine,
};
use lv_interp::ChecksumConfig;
use std::time::Instant;

/// Completions per kernel per second of `--seconds`, sized so one run
/// measures about `--seconds` on a 2-CPU x86-64 machine.
pub const K_PER_SECOND: usize = 68;

/// Generator threads; with one engine worker the pipeline uses 2 threads.
pub const GEN_THREADS: usize = 1;

/// Engine worker threads.
pub const ENGINE_THREADS: usize = 1;

/// Bounded generation→verification queue capacity.
pub const QUEUE_CAPACITY: usize = 64;

/// The pass@k points reported.
pub const KS: [usize; 2] = [1, 10];

/// Completions per kernel of the untimed warm-up pass.
const WARMUP_K: usize = 4;

/// Completions per kernel per round: a half-second round.
pub const K_PER_ROUND: usize = K_PER_SECOND / ROUNDS_PER_SECOND;

/// Measurement rounds in a run of `seconds` (at least 5, so the rounds
/// together give pass@10 at least 10 samples per kernel).
pub fn rounds_for(seconds: u64) -> usize {
    (seconds as usize * ROUNDS_PER_SECOND).max(5)
}

/// Every TSVC kernel, parsed.
pub fn kernels() -> Vec<(String, Function)> {
    lv_tsvc::KERNELS
        .iter()
        .map(|k| (k.name.to_string(), k.function()))
        .collect()
}

fn checksum_engine() -> VerificationEngine {
    VerificationEngine::new(
        EngineConfig::checksum_only(ChecksumConfig::default()).with_threads(ENGINE_THREADS),
    )
}

fn llm(seed: u64) -> LlmConfig {
    LlmConfig {
        seed,
        ..LlmConfig::default()
    }
}

/// The generator seed of measurement round `round`.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, trace: bool) -> RunOutput {
    // Set-up (parse the kernels, build the engine) is repeated before every
    // round, so its median samples the whole run, not one moment of it.
    let mut setups = Vec::new();
    let mut set_up = || {
        let start = Instant::now();
        let prepared = (kernels(), checksum_engine());
        setups.push(start.elapsed().as_secs_f64());
        prepared
    };
    let (mut kernels, mut engine) = set_up();
    let (k, round_count) = (K_PER_ROUND, rounds_for(seconds));
    let cells = kernels.len() * k;
    // Warm-up: first-touch allocation and lazy initialization stay out of
    // the timed rounds.
    run_once(
        &engine,
        &kernels,
        &llm(seed),
        WARMUP_K,
        &lv_core::NoopObserver,
    );

    let (mut runs, mut rounds) = (Vec::new(), Vec::new());
    for r in 0..round_count {
        (kernels, engine) = set_up();
        let llm = llm(round_seed(seed, r));
        let start = Instant::now();
        let latency = LatencyObserver::new(cells, start);
        let run = run_once(&engine, &kernels, &llm, k, &latency);
        rounds.push(Round {
            jobs: run.report.jobs.len() as u64,
            seconds: start.elapsed().as_secs_f64(),
            latency_ms: stats::sorted(latency.job_ms()),
        });
        runs.push(run);
    }
    let rss = peak_rss_mb();

    let mut out = RunOutput::new((cells * round_count) as u64);
    let all_reports = || runs.iter().flat_map(|run| &run.report.jobs);
    let (n, decided, equivalent) = decided_counts(all_reports().map(|r| r.verdict));
    out.put_rounds(&rounds);
    out.e2e
        .put("decided_ratio", ratio(decided as f64, n as f64), "ratio");
    out.e2e.put("setup_s", stats::median(&setups), "s");
    out.e2e.put("peak_rss_mb", rss, "MB");
    out.layers.put(
        "equivalent_ratio",
        ratio(equivalent as f64, n as f64),
        "ratio",
    );
    let mut plausible = vec![0usize; kernels.len()];
    for run in &runs {
        for (total, c) in plausible.iter_mut().zip(&run.plausible_per_kernel) {
            *total += c;
        }
    }
    for (at, value) in pass_at_k_curve(&plausible, k * round_count, &KS) {
        out.layers.put(&format!("pass_at_{}", at), value, "ratio");
    }

    // Oracle pass: regenerate every cell (timing the generator directly)
    // and check its verdict.
    let mut checker = VerdictChecker::new();
    let mut gen_ns = 0u128;
    for (r, run) in runs.iter().enumerate() {
        let llm = llm(round_seed(seed, r));
        for (cell, report) in run.report.jobs.iter().enumerate() {
            let (i, j) = (cell / k, cell % k);
            let scalar = &kernels[i].1;
            let start = Instant::now();
            let completion = sample_completion_cell(scalar, &llm, i, j);
            gen_ns += start.elapsed().as_nanos();
            checker.check(
                &report.label,
                scalar,
                &completion.candidate,
                report.verdict,
                report.checksum,
            );
        }
    }
    out.check = checker.result;

    out.record("jobs", cells * round_count);
    out.record("kernels", kernels.len());
    out.record("k_per_round", k);
    out.record("k", k * round_count);
    out.record("engine_threads", ENGINE_THREADS);
    out.record("generator_threads", GEN_THREADS);
    // The calling thread runs the single engine worker.
    out.record("benchmark_threads", 0);
    out.record("queue_capacity", QUEUE_CAPACITY);
    out.record(
        "checksum",
        "ChecksumConfig::default (n=100, 3 trials); checksum-only cascade",
    );
    out.record("llm_latency", "0");
    out.record("latency", "per-job job_started to job_finished");

    if trace {
        out.layers.put(
            "agents.gen_us_per_completion",
            gen_ns as f64 / 1e3 / (cells * round_count) as f64,
            "us",
        );
        let untraced_s: f64 = rounds.iter().map(|r| r.seconds).sum();
        let mut tracer = Tracer::new();
        let lo = tracer.now_ns();
        let mut traced = Vec::new();
        for r in 0..round_count {
            tracer.set_job_offset((r * cells) as u64);
            let llm = llm(round_seed(seed, r));
            traced.push(run_once(&engine, &kernels, &llm, k, &tracer));
        }
        let hi = tracer.now_ns();
        let traced_set = verdict_set(traced.iter().flat_map(|run| &run.report.jobs));
        if traced_set != verdict_set(all_reports()) {
            out.trace_mismatch = true;
        }
        let spans = tracer.into_spans();
        crate::write_trace("passk_checksum", &spans);
        let reports: Vec<_> = traced.iter().flat_map(|run| &run.report.jobs).collect();
        let (layers, coverage) = engine_layers(&spans, &reports, lo, hi);
        out.layers.extend(layers);
        out.layers.put("trace.coverage_ratio", coverage, "ratio");
        out.layers.put(
            "trace.overhead_ratio",
            (hi - lo) as f64 / 1e9 / untraced_s - 1.0,
            "ratio",
        );
    }
    out
}

fn run_once(
    engine: &VerificationEngine,
    kernels: &[(String, Function)],
    llm: &LlmConfig,
    k: usize,
    observer: &dyn BatchObserver,
) -> lv_core::PassKRun {
    overlapped_pass_at_k_observed(
        engine,
        kernels,
        llm,
        k,
        &KS,
        GEN_THREADS,
        QUEUE_CAPACITY,
        observer,
    )
}
