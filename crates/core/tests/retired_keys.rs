//! Files written before portfolio budget racing was removed still load.
//!
//! Portfolio racing left three retired keys on disk: `escalations` in
//! cross-run profile records, `escalated` / `escalations` in shard report
//! records, and `"portfolio"` in a manifest's `reuse` object. Portfolio
//! never entered the configuration fingerprint, so readers ignore the
//! retired keys and the files load exactly as before. The fixtures below are
//! byte-for-byte what the previous format wrote, CRC frames included.

use lv_analysis::KernelCategory;
use lv_core::shard::{ShardReportFile, SweepManifest};
use lv_core::{CrossRunProfile, EngineReuse, Equivalence, Stage};
use std::path::PathBuf;
use std::time::Duration;

/// A profile journal whose one cell carries `"escalations"`.
const PROFILE: &str = r#"{"journal":"cross-run-profile","version":1} d629fb99
{"category":"dependence-free","stage":"alive2","entered":"0000000000000001","killed":"0000000000000001","wall_us":"00000000000005dc","conflicts":"000000000000012c","cmax_conflicts":"000000000000012c","cmax_clauses":"0000000000000fa0","escalations":"0000000000000001","vars_eliminated":"0000000000000000","clauses_subsumed":"0000000000000000","clauses_strengthened":"0000000000000000"} 1fdabf64
"#;

/// A shard report journal whose one entry carries `"escalations"` in its
/// reuse counters and `"escalated":true` on its trace.
const REPORT: &str = r#"{"journal":"shard-report","version":1,"shard":1,"shards":2,"fingerprint":"000000000000feed"} 15aa15ad
{"index":3,"label":"s000#0","verdict":"equivalent","stage":"alive2","detail":"","checksum":null,"cache_hit":false,"wall_us":"0000000000000640","reuse":{"blast_hits":"0000000000000002","blast_misses":"0000000000000001","assumption_reuses":"0000000000000003","escalations":"0000000000000001"},"simplify":{"vars_eliminated":"0000000000000000","clauses_subsumed":"0000000000000000","clauses_strengthened":"0000000000000000","arena_bytes":"0000000000000000","preprocess_us":"0000000000000000"},"traces":[{"stage":"alive2","conclusive":true,"wall_us":"00000000000005dc","conflicts":"000000000000012c","clauses":"0000000000000fa0","name_mismatch":false,"escalated":true}]} c7bdbace
"#;

/// A manifest with `"portfolio":true` in its `reuse` object.
const MANIFEST: &str = r#"{"version":1,"fingerprint":"9ab65f10110c80d0","shards":2,"policy":"hash-mod","threads":0,"cascade":["checksum","alive2","cunroll","splitting"],"schedule":{},"checksum":{"n":100,"trials":3,"seed":"0000000000005eed","slack":8,"value_range":[-100,100],"scalar_overrides":{},"max_steps":"0000000001312d00"},"tv":{"alive2_budget":{"max_conflicts":"000000000000ea60","max_clauses":"00000000000927c0"},"cunroll_budget":{"max_conflicts":"0000000000061a80","max_clauses":"00000000002dc6c0"},"spatial_budget":{"max_conflicts":"0000000000030d40","max_clauses":"000000000016e360"},"alive2_chunks":2,"array_slack":8,"max_iterations":4096},"reuse":{"memo":true,"incremental":false,"portfolio":true,"simplify_preprocess":false,"simplify_inprocess":false},"jobs":[{"label":"s000","scalar":"void s000(int n, int *a, int *b) {\n    for (int i = 0; i < n; i += 1) {\n        a[i] = b[i] + 1;\n    }\n}\n","candidate":"void s000(int n, int *a, int *b) {\n    for (int i = 0; i < n; i += 1) {\n        a[i] = b[i] + 1;\n    }\n}\n"}]}
"#;

/// The fingerprint recorded in [`MANIFEST`]: memo on, everything else at
/// its default.
const MANIFEST_FINGERPRINT: u64 = 0x9ab6_5f10_110c_80d0;

fn write_temp(name: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lv-retired-keys-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write fixture");
    path
}

#[test]
fn profile_journal_with_escalations_loads() {
    let path = write_temp("profile.json", PROFILE);
    let profile = CrossRunProfile::load(&path).expect("retired key is ignored");
    assert_eq!(profile.len(), 1);
    let cell = profile
        .cell(KernelCategory::DependenceFree, Stage::Alive2)
        .expect("the recorded cell");
    assert_eq!((cell.entered, cell.killed), (1, 1));
    assert_eq!(cell.wall_us, 1_500);
    assert_eq!(cell.conflicts, 300);
    assert_eq!(cell.conclusive_max_conflicts, 300);
    assert_eq!(cell.conclusive_max_clauses, 4_000);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn shard_report_with_escalations_loads() {
    let path = write_temp("report.json", REPORT);
    let report = ShardReportFile::load(&path).expect("retired keys are ignored");
    assert_eq!((report.shard, report.shards), (1, 2));
    assert_eq!(report.fingerprint, 0xfeed);
    assert_eq!(report.entries.len(), 1);
    let (index, job) = &report.entries[0];
    assert_eq!(*index, 3);
    assert_eq!(job.label, "s000#0");
    assert_eq!(job.verdict, Equivalence::Equivalent);
    assert_eq!(job.stage, Stage::Alive2);
    assert_eq!(job.wall, Duration::from_micros(1_600));
    assert_eq!(
        (
            job.reuse.blast_hits,
            job.reuse.blast_misses,
            job.reuse.assumption_reuses
        ),
        (2, 1, 3)
    );
    assert_eq!(job.traces.len(), 1);
    let trace = &job.traces[0];
    assert!(trace.conclusive);
    assert_eq!((trace.conflicts, trace.clauses), (300, 4_000));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn manifest_with_portfolio_loads_under_the_same_fingerprint() {
    let path = write_temp("manifest.json", MANIFEST);
    // `load` re-derives the fingerprint from the parsed configuration and
    // rejects a mismatch, so a successful load pins that dropping the key
    // changes no fingerprint (and hence no cache key).
    let manifest = SweepManifest::load(&path).expect("retired key is ignored");
    assert_eq!(
        manifest.reuse,
        EngineReuse {
            memo: true,
            ..EngineReuse::default()
        }
    );
    assert_eq!(manifest.fingerprint(), MANIFEST_FINGERPRINT);
    assert_eq!(manifest.job_count(), 1);
    let _ = std::fs::remove_file(&path);
}
