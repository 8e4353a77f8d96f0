//! Schedule soundness: reordering the symbolic cascade stages can change
//! which stage answers, but never *what* is answered.
//!
//! The property test enumerates every permutation of the three symbolic
//! stages (checksum pinned first, as `StageSchedule` enforces) and pins that
//! all of them produce bit-identical verdicts on a TSVC slice spanning every
//! kernel category — while non-default permutations fingerprint distinctly,
//! so their cache entries never mix with the default schedule's. The profile
//! tests pin the cross-run loop: a persisted `CrossRunProfile` reloads to an
//! identical derived schedule and identical derived budgets, and a slice
//! whose conditional kernels waste their Alive2 budget derives a non-default
//! schedule from the profile alone that still yields the same verdicts.

use llm_vectorizer_repro::agents::vectorize_correct;
use llm_vectorizer_repro::analysis::{categorize, KernelCategory};
use llm_vectorizer_repro::core::{
    BatchReport, CrossRunProfile, EngineConfig, Equivalence, FsyncPolicy, Job, PipelineConfig,
    Stage, StageSchedule, VerificationEngine, SYMBOLIC_STAGES,
};
use llm_vectorizer_repro::interp::ChecksumConfig;
use llm_vectorizer_repro::tv::{SolverBudget, TvConfig};

/// Reduced budgets (the shard-sweep example's): small enough that the
/// conditional kernels exhaust Alive2 and fall through — which is exactly
/// the regime where reordering matters.
fn pipeline() -> PipelineConfig {
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

/// A TSVC slice covering every kernel category (including a checksum-refuted
/// candidate, s319) — small enough that 6 permutations stay test-friendly.
fn slice_jobs() -> Vec<Job> {
    [
        "s000", "s112", "vsumr", "s313", "s2711", "s441", "s212", "s453", "s319",
    ]
    .iter()
    .filter_map(|name| {
        let scalar = llm_vectorizer_repro::tsvc::kernel(name)?.function();
        let candidate = vectorize_correct(&scalar).ok()?;
        Some(Job::new(*name, scalar, candidate))
    })
    .collect()
}

fn all_symbolic_permutations() -> Vec<[Stage; 3]> {
    let [a, b, c] = SYMBOLIC_STAGES;
    vec![
        [a, b, c],
        [a, c, b],
        [b, a, c],
        [b, c, a],
        [c, a, b],
        [c, b, a],
    ]
}

/// A schedule applying `order` to every category, so every job in the batch
/// runs reordered.
fn uniform_schedule(order: [Stage; 3]) -> StageSchedule {
    KernelCategory::all()
        .into_iter()
        .try_fold(StageSchedule::algorithm1(), |schedule, category| {
            schedule.with_override(category, order.to_vec())
        })
        .expect("a permutation of SYMBOLIC_STAGES is always valid")
}

fn assert_verdicts_match(default: &BatchReport, other: &BatchReport, what: &str) {
    assert_eq!(default.jobs.len(), other.jobs.len(), "{}: job count", what);
    for (d, o) in default.jobs.iter().zip(&other.jobs) {
        assert_eq!(d.label, o.label, "{}: job order", what);
        assert_eq!(d.verdict, o.verdict, "{}: verdict for {}", what, d.label);
        assert_eq!(
            d.checksum, o.checksum,
            "{}: checksum class for {}",
            what, d.label
        );
    }
}

#[test]
fn every_symbolic_permutation_yields_identical_verdicts() {
    let jobs = slice_jobs();
    assert!(jobs.len() >= 8, "slice must cover every category");
    let categories: Vec<KernelCategory> = jobs.iter().map(|j| categorize(&j.scalar)).collect();
    for category in KernelCategory::all() {
        assert!(
            categories.contains(&category),
            "slice is missing a {} kernel",
            category.tag()
        );
    }

    let default_config = EngineConfig::full(pipeline()).with_threads(1);
    let default_fingerprint = default_config.semantic_fingerprint();
    let default_run = VerificationEngine::new(default_config).run_batch(&jobs);
    assert!(
        default_run.count(Equivalence::Equivalent) >= 6,
        "the slice must exercise the symbolic stages"
    );
    assert!(
        default_run.count(Equivalence::NotEquivalent) >= 1,
        "the slice must include a refuted candidate"
    );

    for order in all_symbolic_permutations() {
        let config = EngineConfig::full(pipeline())
            .with_threads(1)
            .with_schedule(uniform_schedule(order));
        let fingerprint = config.semantic_fingerprint();
        if order == SYMBOLIC_STAGES {
            assert_eq!(
                fingerprint, default_fingerprint,
                "the identity permutation is the default configuration"
            );
        } else {
            assert_ne!(
                fingerprint, default_fingerprint,
                "a real reorder must fingerprint (and therefore cache) distinctly"
            );
        }
        let run = VerificationEngine::new(config).run_batch(&jobs);
        assert_verdicts_match(&default_run, &run, &format!("permutation {:?}", order));
        // The permutation really was executed: every job that ran a
        // symbolic stage ran them in the permuted order (checksum first).
        for report in &run.jobs {
            let symbolic: Vec<Stage> = report
                .traces
                .iter()
                .map(|t| t.stage)
                .filter(|s| *s != Stage::Checksum)
                .collect();
            let expected: Vec<Stage> = order.iter().copied().take(symbolic.len()).collect();
            assert_eq!(
                symbolic, expected,
                "{}: symbolic stages must run in schedule order",
                report.label
            );
            if !report.traces.is_empty() {
                assert_eq!(
                    report.traces[0].stage,
                    Stage::Checksum,
                    "checksum is pinned"
                );
            }
        }
    }
}

#[test]
fn profile_round_trip_derives_identical_schedule_and_budgets() {
    let jobs = slice_jobs();
    let run =
        VerificationEngine::new(EngineConfig::full(pipeline()).with_threads(1)).run_batch(&jobs);
    let profile = CrossRunProfile::from_batch(&jobs, &run.jobs);
    assert!(!profile.is_empty());

    let path = std::env::temp_dir().join(format!(
        "lv-schedule-roundtrip-{}.profile.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    profile.append_to(&path, FsyncPolicy::OnCompact).unwrap();
    let reloaded = CrossRunProfile::load(&path).unwrap();
    assert_eq!(reloaded, profile, "persist -> reload is lossless");

    // Identical derived schedule…
    assert_eq!(
        StageSchedule::from_profile(&reloaded),
        StageSchedule::from_profile(&profile)
    );
    // …and identical derived budgets.
    let base = pipeline().tv;
    let from_memory = profile.tuned_budgets(&base);
    let from_disk = reloaded.tuned_budgets(&base);
    assert_eq!(from_memory.alive2_budget, from_disk.alive2_budget);
    assert_eq!(from_memory.cunroll_budget, from_disk.cunroll_budget);
    assert_eq!(from_memory.spatial_budget, from_disk.spatial_budget);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn warm_profile_derives_a_non_default_schedule_with_identical_verdicts() {
    let jobs = slice_jobs();
    let default_run =
        VerificationEngine::new(EngineConfig::full(pipeline()).with_threads(1)).run_batch(&jobs);

    // First run recorded; second run derives its schedule from the profile
    // alone — no fresh telemetry.
    let profile = CrossRunProfile::from_batch(&jobs, &default_run.jobs);
    let derived = StageSchedule::from_profile(&profile);
    assert!(
        !derived.is_default(),
        "conditional kernels exhaust Alive2 under these budgets, so the profile \
         must demote it for that category; derived: {}",
        derived.spec()
    );
    let conditional = derived
        .override_for(KernelCategory::Conditional)
        .expect("the conditional category is the one with wasted Alive2 budget");
    assert_ne!(
        conditional[0],
        Stage::Alive2,
        "Alive2 killed nothing for conditional kernels and must not stay first"
    );

    let guided = VerificationEngine::new(
        EngineConfig::full(pipeline())
            .with_threads(1)
            .with_schedule(derived),
    )
    .run_batch(&jobs);
    assert_verdicts_match(&default_run, &guided, "profile-guided schedule");
}
