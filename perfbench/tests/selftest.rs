//! Self-tests of the benchmark's own machinery: seeded inputs, the
//! percentile rule, self-time arithmetic, the oracle, and traced/untraced
//! verdict identity.

use lv_cir::ast::Stmt;
use lv_core::{Job, VerdictCache, VerificationEngine};
use lv_perfbench::common::{cascade_config, verdict_set, LatencyObserver};
use lv_perfbench::daemon::{literal_sites, Schedule};
use lv_perfbench::oracle::{assumed_sizes, check_pair, content_key, Finding, Oracle};
use lv_perfbench::stats::{percentile, samples_beyond, tail_percentile};
use lv_perfbench::trace::{self_time_by_name, self_times, Span, Tracer};
use std::sync::Arc;
use std::time::Instant;

fn content_hashes(jobs: &[Job]) -> Vec<(u64, u64)> {
    jobs.iter()
        .map(|job| content_key(&job.scalar, &job.candidate))
        .collect()
}

#[test]
fn tsvc_jobs_are_a_function_of_the_seed() {
    let a = content_hashes(&lv_perfbench::tsvc::jobs(7));
    assert_eq!(
        a.len(),
        148,
        "37 supported kernels x (rule + 3 completions)"
    );
    assert_eq!(a, content_hashes(&lv_perfbench::tsvc::jobs(7)));
    assert_ne!(a, content_hashes(&lv_perfbench::tsvc::jobs(8)));
}

#[test]
fn daemon_batches_are_a_function_of_the_seed() {
    let batches = |seed: u64| {
        let mut schedule = Schedule::new(seed);
        let mut hashes: Vec<(u64, u64)> = schedule
            .snapshot_contents()
            .iter()
            .map(|c| c.key())
            .collect();
        for b in 0..40 {
            hashes.extend(content_hashes(&schedule.next_batch(b).jobs));
        }
        hashes
    };
    let a = batches(3);
    assert_eq!(a, batches(3));
    assert_ne!(a, batches(4));
}

#[test]
fn passk_completions_are_a_function_of_the_seed() {
    let kernels = lv_perfbench::passk::kernels();
    let cells = |seed: u64| -> Vec<(u64, u64)> {
        let llm = lv_agents::LlmConfig {
            seed,
            ..lv_agents::LlmConfig::default()
        };
        (0..kernels.len())
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .map(|(i, j)| {
                let c = lv_agents::sample_completion_cell(&kernels[i].1, &llm, i, j);
                content_key(&kernels[i].1, &c.candidate)
            })
            .collect()
    };
    assert_eq!(cells(11), cells(11));
    assert_ne!(cells(11), cells(12));
}

#[test]
fn nearest_rank_percentiles() {
    let samples: Vec<f64> = (1..=148).map(f64::from).collect();
    assert_eq!(percentile(&samples, 50.0), 74.0);
    assert_eq!(percentile(&samples, 90.0), 134.0);
    assert_eq!(percentile(&samples, 99.0), 147.0);
    assert_eq!(samples_beyond(148, 90.0), 14);
    assert_eq!(samples_beyond(148, 99.0), 1);
    // 148 jobs: p90 is the highest percentile with >= 10 samples beyond.
    assert_eq!(tail_percentile(148), 90.0);
    assert_eq!(tail_percentile(1000), 99.0);
    assert_eq!(tail_percentile(20_000), 99.9);
    assert_eq!(tail_percentile(5), 50.0);
    assert_eq!(percentile(&[], 50.0), 0.0);
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, thread: u32) -> Span {
    Span {
        name,
        start_ns: start,
        end_ns: end,
        parent,
        job: 0,
        thread,
    }
}

#[test]
fn self_time_subtracts_covered_child_time() {
    let spans = vec![
        span("job", 0, 100, None, 0),
        span("a", 10, 40, Some(0), 0),
        span("b", 30, 60, Some(0), 0), // overlaps `a`: the union counts once
        span("c", 90, 120, Some(0), 0), // sticks out: only 90..100 is covered
        span("job", 200, 260, None, 1),
    ];
    assert_eq!(self_times(&spans), vec![40, 30, 30, 30, 60]);
    let by_name = self_time_by_name(&spans);
    assert_eq!(by_name["job"], 100);
    let idle = lv_perfbench::trace::idle_by_thread(&spans, 0, 300);
    assert_eq!(idle[&0], 200);
    assert_eq!(idle[&1], 240);
}

#[test]
fn oracle_flags_a_missing_epilogue_at_n_9() {
    let scalar = lv_tsvc::kernel("s000").unwrap().function();
    let correct = lv_agents::vectorize_correct(&scalar).unwrap();
    let mut planted = correct.clone();
    let epilogue = planted
        .body
        .stmts
        .iter()
        .rposition(|s| matches!(s, Stmt::For { init: None, .. }))
        .expect("the rule-based candidate ends in a scalar epilogue");
    planted.body.stmts.remove(epilogue);
    assert!(matches!(
        check_pair(&scalar, &planted, &[9], 1),
        Finding::Refuted { .. }
    ));
    // n = 8 has no remainder: the same candidate passes there, which is
    // exactly why the held-out sizes avoid multiples of 8.
    assert!(matches!(
        check_pair(&scalar, &planted, &[8], 1),
        Finding::Agrees { .. }
    ));
    assert!(matches!(
        check_pair(&scalar, &correct, &lv_perfbench::oracle::HELD_OUT_SIZES, 2),
        Finding::Agrees { .. }
    ));
}

#[test]
fn oracle_separates_a_missing_epilogue_from_a_wrong_candidate() {
    let scalar = lv_tsvc::kernel("s000").unwrap().function();
    let no_epilogue = lv_cir::parse_function(
        "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(x, _mm256_set1_epi32(1))); } }",
    )
    .unwrap();
    // Trip counts 8, 24, 40, 64 and 256 of `i < n`, from i = 0.
    assert_eq!(
        assumed_sizes(&scalar, &no_epilogue),
        Some(vec![8, 24, 40, 64, 256])
    );
    let mut oracle = Oracle::new();
    assert!(matches!(
        oracle.check(&scalar, &no_epilogue),
        Finding::Refuted { .. }
    ));
    assert!(matches!(
        oracle.check_assumed(&scalar, &no_epilogue),
        Finding::Agrees { .. }
    ));
    let wrong = lv_cir::parse_function(
        "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(x, _mm256_set1_epi32(2))); } }",
    )
    .unwrap();
    assert!(matches!(
        oracle.check_assumed(&scalar, &wrong),
        Finding::Refuted { .. }
    ));
}

#[test]
fn oracle_binds_arrays_by_position() {
    let scalar = lv_tsvc::kernel("s000").unwrap().function();
    let renamed = lv_cir::parse_function(
        "void s000(int n, int *x, int *y) { for (int i = 0; i < n; i++) { x[i] = y[i] + 1; } }",
    )
    .unwrap();
    assert!(matches!(
        check_pair(&scalar, &renamed, &[9], 1),
        Finding::Agrees { .. }
    ));
    let swapped = lv_cir::parse_function(
        "void s000(int n, int *b, int *a) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
    )
    .unwrap();
    assert!(matches!(
        check_pair(&scalar, &swapped, &[9], 1),
        Finding::Refuted { .. }
    ));
}

#[test]
fn traced_and_untraced_runs_agree_on_verdicts() {
    let keep = ["s000", "s112", "vsumr", "s212", "s453"];
    let jobs: Vec<Job> = lv_perfbench::tsvc::jobs(5)
        .into_iter()
        .filter(|j| keep.iter().any(|k| j.label.starts_with(&format!("{}#", k))))
        .collect();
    let engine = || {
        VerificationEngine::new(cascade_config(2).with_cache(Arc::new(VerdictCache::in_memory())))
    };
    let plain =
        engine().run_batch_observed(&jobs, &LatencyObserver::new(jobs.len(), Instant::now()));
    let tracer = Tracer::new();
    let traced = engine().run_batch_observed(&jobs, &tracer);
    assert_eq!(verdict_set(&plain.jobs), verdict_set(&traced.jobs));
    let spans = tracer.into_spans();
    let job_spans = spans.iter().filter(|s| s.parent.is_none()).count();
    assert_eq!(job_spans, jobs.len());
    assert_eq!(spans.len() - job_spans, traced.stage_runs());
}

#[test]
fn literal_sites_skip_subscripts_and_loop_headers() {
    let src = "void s112(int n, int *a, int *b, int *c) { for (int i = 0; i < n - 1; i++) { a[i + 1] = b[i] + c[i] * 5; } }";
    let sites: Vec<&str> = literal_sites(src)
        .iter()
        .map(|&(s, e)| &src[s..e])
        .collect();
    assert_eq!(sites, vec!["5"]);
}

#[test]
fn rounds_report_the_least_disturbed_rounds() {
    use lv_perfbench::{Round, RunOutput};
    let round = |jobs: u64, seconds: f64, latency: f64| Round {
        jobs,
        seconds,
        latency_ms: vec![latency; 20],
    };
    let mut out = RunOutput::new(400);
    // A stall halves the throughput of one round and doubles its latency.
    out.put_rounds(&[
        round(100, 1.0, 2.0),
        round(100, 2.0, 4.0),
        round(100, 1.0, 2.0),
        round(100, 1.25, 2.5),
    ]);
    // Nearest rank over 4 rounds: the 95th percentile is the best round.
    assert_eq!(out.e2e.get("jobs_per_s"), Some(100.0));
    assert_eq!(out.e2e.get("latency_ms_p90"), Some(2.0));
    // Over 30 rounds it is the second-best: one lucky round does not count.
    let mut rounds: Vec<Round> = (0..28).map(|_| round(100, 2.0, 4.0)).collect();
    rounds.push(round(100, 1.0, 2.0));
    rounds.push(round(100, 1.25, 2.5));
    let mut out = RunOutput::new(3000);
    out.put_rounds(&rounds);
    assert_eq!(out.e2e.get("jobs_per_s"), Some(80.0));
    assert_eq!(out.e2e.get("latency_ms_p90"), Some(2.5));
}

#[test]
fn benchmark_json_lists_the_metrics_the_binary_prints() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the perfbench directory");
    let names_in = |section: &str| -> Vec<String> {
        let start = json.find(section).expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').unwrap()].to_string())
            .collect()
    };
    let listed = |table: &[(&str, &str)]| -> Vec<String> {
        table.iter().map(|(name, _)| name.to_string()).collect()
    };
    assert_eq!(
        names_in("\"end_to_end\""),
        listed(&lv_perfbench::END_TO_END)
    );
    assert_eq!(names_in("\"per_layer\""), listed(&lv_perfbench::PER_LAYER));
    assert_eq!(names_in("\"workloads\""), lv_perfbench::WORKLOADS.to_vec());
}
