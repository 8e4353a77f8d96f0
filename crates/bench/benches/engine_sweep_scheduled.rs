//! Profile-guided stage scheduling on the TSVC sweep: run the full batch
//! under the default Algorithm 1 order, persist its telemetry as a
//! `CrossRunProfile` journal, derive the per-category stage schedule from
//! the *reloaded* journal alone, and re-run the batch under it —
//! verdicts must be bit-identical, and the wall-time gap is the win the
//! schedule buys by not burning the Alive2 budget on kernel shapes it never
//! concludes.
//!
//! The budgets are the shard-sweep example's (Alive2 capped at 1k
//! conflicts): under them the conditional kernels exhaust Alive2 and fall
//! through, so the derived schedule demotes it for that category — which is
//! exactly the ROADMAP's "reorder cascade stages per kernel category"
//! telemetry item. Results are printed and written to `BENCH_5.json`
//! (override with `BENCH_OUT`); `LV_BENCH_QUICK=1` shrinks the workload to
//! a category-covering slice for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use lv_core::{
    CrossRunProfile, EngineConfig, FsyncPolicy, Job, PipelineConfig, StageSchedule,
    VerificationEngine,
};
use lv_interp::ChecksumConfig;
use lv_tv::{SolverBudget, TvConfig};
use std::time::{Duration, Instant};

/// The shard-sweep example's reduced budgets: small enough that conditional
/// kernels exhaust Alive2, which is the regime where reordering pays.
fn scheduled_pipeline() -> PipelineConfig {
    PipelineConfig {
        checksum: ChecksumConfig {
            trials: 1,
            n: 40,
            ..ChecksumConfig::default()
        },
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

fn jobs_for(names: Option<&[&str]>) -> Vec<Job> {
    lv_tsvc::KERNELS
        .iter()
        .filter(|kernel| names.is_none_or(|names| names.contains(&kernel.name)))
        .filter_map(|kernel| {
            let scalar = kernel.function();
            let candidate = lv_agents::vectorize_correct(&scalar).ok()?;
            Some(Job::new(kernel.name, scalar, candidate))
        })
        .collect()
}

/// A category-covering slice for quick (CI smoke) runs.
const QUICK_KERNELS: &[&str] = &[
    "s000", "s112", "vsumr", "s313", "s2711", "s441", "s443", "s212", "s453",
];

struct Comparison {
    jobs: usize,
    schedule: String,
    default_wall: Duration,
    scheduled_wall: Duration,
}

fn compare(jobs: &[Job]) -> (Comparison, VerificationEngine, VerificationEngine) {
    let default_engine =
        VerificationEngine::new(EngineConfig::full(scheduled_pipeline()).with_threads(1));
    let start = Instant::now();
    let default_run = default_engine.run_batch(jobs);
    let default_wall = start.elapsed();

    // Persist the run's telemetry and derive the schedule from the reloaded
    // journal — the cross-run path, not an in-memory shortcut.
    let profile_path = std::env::temp_dir().join(format!(
        "lv-engine-sweep-scheduled-{}.profile.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&profile_path);
    CrossRunProfile::from_batch(jobs, &default_run.jobs)
        .append_to(&profile_path, FsyncPolicy::OnCompact)
        .expect("profile append");
    let profile = CrossRunProfile::load(&profile_path).expect("profile reload");
    let _ = std::fs::remove_file(&profile_path);
    let schedule = StageSchedule::from_profile(&profile);
    assert!(
        !schedule.is_default(),
        "these budgets must produce a non-default derived schedule"
    );

    let scheduled_engine = VerificationEngine::new(
        EngineConfig::full(scheduled_pipeline())
            .with_threads(1)
            .with_schedule(schedule.clone()),
    );
    let start = Instant::now();
    let scheduled_run = scheduled_engine.run_batch(jobs);
    let scheduled_wall = start.elapsed();

    for (d, s) in default_run.jobs.iter().zip(&scheduled_run.jobs) {
        assert_eq!(
            (&d.label, d.verdict, d.checksum),
            (&s.label, s.verdict, s.checksum),
            "the schedule changed a verdict for {}",
            d.label
        );
    }

    (
        Comparison {
            jobs: jobs.len(),
            schedule: schedule.spec(),
            default_wall,
            scheduled_wall,
        },
        default_engine,
        scheduled_engine,
    )
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("LV_BENCH_QUICK").is_ok();
    let jobs = jobs_for(if quick { Some(QUICK_KERNELS) } else { None });
    let (row, default_engine, scheduled_engine) = compare(&jobs);

    println!(
        "\n=== engine_sweep_scheduled: {} TSVC jobs ===\n\
         derived schedule: {}\n\
         default order:   {:?}\n\
         profile-guided:  {:?} ({:.2}x)",
        row.jobs,
        row.schedule,
        row.default_wall,
        row.scheduled_wall,
        row.default_wall.as_secs_f64() / row.scheduled_wall.as_secs_f64().max(1e-9),
    );

    let out =
        std::env::var("BENCH_OUT").unwrap_or_else(|_| match std::env::var("CARGO_MANIFEST_DIR") {
            Ok(pkg) => format!("{}/../../BENCH_5.json", pkg),
            Err(_) => "BENCH_5.json".to_string(),
        });
    let json = format!(
        "{{\"bench\":\"engine_sweep_scheduled\",\
         \"compares\":\"default Algorithm 1 stage order vs schedule derived from a persisted \
         cross-run profile (bit-identical verdicts)\",\
         \"jobs\":{},\"schedule\":\"{}\",\
         \"default_wall_us\":{},\"scheduled_wall_us\":{},\"speedup_x\":{:.2}}}\n",
        row.jobs,
        row.schedule,
        row.default_wall.as_micros(),
        row.scheduled_wall.as_micros(),
        row.default_wall.as_secs_f64() / row.scheduled_wall.as_secs_f64().max(1e-9),
    );
    std::fs::write(&out, json).expect("write bench JSON");
    println!("wrote {}", out);

    // The timed loops run the quick slice either way, so local full runs
    // still finish in benchmark-friendly time.
    let loop_jobs = jobs_for(Some(QUICK_KERNELS));
    c.bench_function("engine_sweep_default_order", |b| {
        b.iter(|| default_engine.run_batch(&loop_jobs))
    });
    c.bench_function("engine_sweep_scheduled", |b| {
        b.iter(|| scheduled_engine.run_batch(&loop_jobs))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(3);
    targets = bench
}
criterion_main!(benches);
