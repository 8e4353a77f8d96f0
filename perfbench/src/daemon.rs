//! `daemon_mixed`: the loopback verification service, set up the way
//! `lv-sweep serve --cache FILE` sets it up, under one closed-loop client.
//!
//! The daemon opens a seeded, pre-built binary cache snapshot. The client
//! submits batches of 16 jobs, one at a time. Two jobs in each batch (1
//! in 8) are first-seen content — a seeded variant of a dependence-free or
//! reduction TSVC kernel with one integer literal rewritten, kept only if
//! `vectorize_correct` accepts it — which misses the cache, runs the
//! cascade and is inserted. The rest resubmit earlier content (from the
//! snapshot or from the recent first-seen window) under new labels: cache
//! hits. The cache is persisted at shutdown.

use crate::common::{
    cascade_config, decided_counts, engine_layers, nproc, peak_rss_mb, ratio, Metrics, Rng,
    VerdictChecker,
};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::{Round, RunOutput, ROUNDS_PER_SECOND};
use lv_agents::vectorize_correct;
use lv_analysis::{categorize, KernelCategory};
use lv_cir::ast::{Function, Type};
use lv_cir::hash::structural_hash_in_env;
use lv_cir::{parse_function, print_function, structural_hash};
use lv_core::{
    CacheKey, CacheSnapshot, CachedVerdict, Equivalence, Job, JobReport, ServiceClient,
    ServiceStatus, VerdictCache, VerificationEngine, VerificationService,
};
use lv_interp::{run_function, ArgBindings, ExecConfig};
use std::collections::{HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Jobs per `submit`.
pub const BATCH: usize = 16;

/// First-seen contents per batch — 1 job in 8 — at seeded slots. A fixed
/// count keeps every round trip the same mix; a binomial count would put
/// the tail percentiles on the edge between 5 and 6 misses per batch.
pub const FIRST_SEEN_PER_BATCH: usize = 2;

/// Distinct variants verified into the pre-built snapshot.
pub const SNAPSHOT_VARIANTS: usize = 1024;

/// How many of the most recent first-seen contents stay eligible for
/// resubmission (bounds the client's memory).
pub const RECENT_WINDOW: usize = 4096;

/// Batches per second of `--seconds`, sized so one pass measures about
/// `--seconds` on a 2-CPU x86-64 machine.
pub const BATCHES_PER_SECOND: usize = 430;

/// Engine workers inside the daemon; with the client thread the workload
/// keeps 2 threads busy.
pub const ENGINE_THREADS: usize = 1;

const SETUP_REPS: usize = 15;

/// Largest replacement literal.
const MAX_LITERAL: u64 = 65_535;

/// One verification problem: a scalar kernel and a candidate, both in the
/// printer's canonical form (what the daemon parses off the wire).
#[derive(Debug, Clone)]
pub struct Content {
    /// The scalar kernel.
    pub scalar: Function,
    /// The candidate vectorization.
    pub candidate: Function,
}

impl Content {
    fn new(scalar: &Function, candidate: &Function) -> Content {
        let canonical =
            |f: &Function| parse_function(&print_function(f)).expect("printer output parses");
        Content {
            scalar: canonical(scalar),
            candidate: canonical(candidate),
        }
    }

    /// `(scalar hash, candidate hash)` — the verdict cache's content pair.
    pub fn key(&self) -> (u64, u64) {
        crate::oracle::content_key(&self.scalar, &self.candidate)
    }
}

/// Byte ranges of the decimal literals in a kernel body that sit outside
/// array subscripts and `for` headers — the literals a variant rewrites.
pub fn literal_sites(source: &str) -> Vec<(usize, usize)> {
    let bytes = source.as_bytes();
    let Some(body) = source.find('{') else {
        return Vec::new();
    };
    let mut sites = Vec::new();
    let (mut subscript, mut header_parens) = (0usize, 0usize);
    let mut i = body;
    while i < bytes.len() {
        let c = bytes[i];
        let word_before = i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
        if source[i..].starts_with("for") && !word_before {
            let rest = source[i + 3..].trim_start();
            if rest.starts_with('(') {
                i = source.len() - rest.len() + 1;
                header_parens = 1;
                continue;
            }
        }
        match c {
            b'[' => subscript += 1,
            b']' => subscript = subscript.saturating_sub(1),
            b'(' if header_parens > 0 => header_parens += 1,
            b')' if header_parens > 0 => header_parens -= 1,
            b'0'..=b'9' if !word_before => {
                let end = (i..bytes.len())
                    .find(|&j| !bytes[j].is_ascii_alphanumeric() && bytes[j] != b'_')
                    .unwrap_or(bytes.len());
                if subscript == 0
                    && header_parens == 0
                    && source[i..end].bytes().all(|b| b.is_ascii_digit())
                {
                    sites.push((i, end));
                }
                i = end;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    sites
}

/// Whether the scalar kernel runs on the checksum harness's input shape
/// (n = 100, 8 elements of slack) — a rewritten literal that indexes out
/// of bounds would make every verdict for it inconclusive.
fn runs_on_harness_inputs(scalar: &Function) -> bool {
    let mut args = ArgBindings::new();
    for p in &scalar.params {
        match p.ty {
            Type::Int => {
                args.scalars.insert(p.name.clone(), 100);
            }
            Type::Ptr(_) => {
                args.arrays.insert(p.name.clone(), vec![1; 108]);
            }
            _ => {}
        }
    }
    run_function(scalar, &args, &ExecConfig::default()).is_ok()
}

/// Seeded generator of first-seen kernel variants.
#[derive(Debug)]
pub struct Variants {
    bases: Vec<(&'static str, Vec<(usize, usize)>)>,
    rng: Rng,
    seen: HashSet<(u64, u64)>,
}

impl Variants {
    /// A generator over every dependence-free or reduction TSVC kernel that
    /// the rule-based vectorizer supports and that has a rewritable literal.
    pub fn new(seed: u64) -> Variants {
        let bases = lv_tsvc::KERNELS
            .iter()
            .filter(|k| {
                let f = k.function();
                matches!(
                    categorize(&f),
                    KernelCategory::DependenceFree | KernelCategory::Reduction
                ) && vectorize_correct(&f).is_ok()
            })
            .map(|k| (k.source, literal_sites(k.source)))
            .filter(|(_, sites)| !sites.is_empty())
            .collect();
        Variants {
            bases,
            rng: Rng(seed ^ 0xDAE0_0000_0000_0001),
            seen: HashSet::new(),
        }
    }

    /// Number of base kernels.
    pub fn bases(&self) -> usize {
        self.bases.len()
    }

    /// The next variant whose content has not been produced before.
    pub fn next_variant(&mut self) -> Content {
        loop {
            let (source, sites) = &self.bases[self.rng.below(self.bases.len() as u64) as usize];
            let (start, end) = sites[self.rng.below(sites.len() as u64) as usize];
            let value = 1 + self.rng.below(MAX_LITERAL);
            if source[start..end] == value.to_string() {
                continue;
            }
            let text = format!("{}{}{}", &source[..start], value, &source[end..]);
            let Ok(scalar) = parse_function(&text) else {
                continue;
            };
            let Ok(candidate) = vectorize_correct(&scalar) else {
                continue;
            };
            let content = Content::new(&scalar, &candidate);
            if !runs_on_harness_inputs(&content.scalar) || !self.seen.insert(content.key()) {
                continue;
            }
            return content;
        }
    }
}

/// The seeded batch sequence: the snapshot's contents, then batches mixing
/// first-seen variants with resubmissions.
#[derive(Debug)]
pub struct Schedule {
    variants: Variants,
    rng: Rng,
    snapshot: Arc<Vec<Content>>,
    recent: VecDeque<Arc<Content>>,
}

/// One batch of the sequence.
#[derive(Debug)]
pub struct Batch {
    /// The jobs, labeled `b<batch>.<slot>`.
    pub jobs: Vec<Job>,
    /// First-seen contents in this batch.
    pub first_seen: usize,
}

impl Schedule {
    /// Draws the snapshot contents for `seed`; returns the schedule and
    /// those contents (to be verified into the pre-built snapshot).
    pub fn new(seed: u64) -> Schedule {
        let mut variants = Variants::new(seed);
        let snapshot: Vec<Content> = (0..SNAPSHOT_VARIANTS)
            .map(|_| variants.next_variant())
            .collect();
        Schedule {
            variants,
            rng: Rng(seed ^ 0xBA7C_0000_0000_0002),
            snapshot: Arc::new(snapshot),
            recent: VecDeque::new(),
        }
    }

    /// The contents the pre-built snapshot holds.
    pub fn snapshot_contents(&self) -> &[Content] {
        &self.snapshot
    }

    /// Batch number `b` (batches must be drawn in order).
    pub fn next_batch(&mut self, b: usize) -> Batch {
        let mut jobs = Vec::with_capacity(BATCH);
        let mut first_seen = 0;
        let mut fresh = [false; BATCH];
        while fresh.iter().filter(|&&f| f).count() < FIRST_SEEN_PER_BATCH {
            fresh[self.rng.below(BATCH as u64) as usize] = true;
        }
        for (slot, &is_fresh) in fresh.iter().enumerate() {
            let label = format!("b{}.{}", b, slot);
            if is_fresh {
                let content = Arc::new(self.variants.next_variant());
                first_seen += 1;
                jobs.push(Job::new(
                    label,
                    content.scalar.clone(),
                    content.candidate.clone(),
                ));
                if self.recent.len() == RECENT_WINDOW {
                    self.recent.pop_front();
                }
                self.recent.push_back(content);
            } else {
                let pick = self
                    .rng
                    .below((self.snapshot.len() + self.recent.len()) as u64)
                    as usize;
                let content: &Content = if pick < self.snapshot.len() {
                    &self.snapshot[pick]
                } else {
                    &self.recent[pick - self.snapshot.len()]
                };
                jobs.push(Job::new(
                    label,
                    content.scalar.clone(),
                    content.candidate.clone(),
                ));
            }
        }
        Batch { jobs, first_seen }
    }
}

/// Verifies `contents` in-process and writes them as a binary snapshot
/// (bloom block on) keyed for the daemon's configuration.
pub fn write_snapshot(path: &Path, contents: &[Content]) -> std::io::Result<()> {
    let config = cascade_config(ENGINE_THREADS);
    let fingerprint = config.semantic_fingerprint();
    let jobs: Vec<Job> = contents
        .iter()
        .enumerate()
        .map(|(i, c)| Job::new(format!("pool{}", i), c.scalar.clone(), c.candidate.clone()))
        .collect();
    let report = VerificationEngine::new(config.with_threads(nproc())).run_batch(&jobs);
    let entries: Vec<(CacheKey, CachedVerdict)> = contents
        .iter()
        .zip(&report.jobs)
        .map(|(c, r)| {
            let (scalar, candidate) = c.key();
            (
                CacheKey {
                    scalar,
                    candidate,
                    config: fingerprint,
                },
                CachedVerdict {
                    verdict: r.verdict,
                    stage: r.stage,
                    detail: r.detail.clone(),
                    checksum: r.checksum,
                },
            )
        })
        .collect();
    CacheSnapshot::write_file(path, &entries, true, false).map(|_| ())
}

/// A running loopback daemon plus its connected client.
struct Daemon {
    cache: Arc<VerdictCache>,
    fingerprint: u64,
    client: ServiceClient,
    thread: JoinHandle<Result<(), lv_core::ServiceError>>,
}

impl Daemon {
    /// Opens the cache file, binds and starts serving on a thread — the
    /// daemon's set-up — then connects the client. Returns the daemon, the
    /// set-up time and how much of it opening the cache took.
    fn start(cache_path: &Path) -> (Daemon, f64, f64) {
        let setup = Instant::now();
        let cache = Arc::new(VerdictCache::open(cache_path).expect("open cache snapshot"));
        let open_s = setup.elapsed().as_secs_f64();
        let service =
            VerificationService::bind("127.0.0.1:0", cascade_config(ENGINE_THREADS), cache.clone())
                .expect("bind loopback service");
        let (addr, fingerprint) = (service.local_addr(), service.fingerprint());
        let thread = std::thread::spawn(move || service.serve_forever());
        let setup_s = setup.elapsed().as_secs_f64();
        let client = ServiceClient::connect(addr).expect("connect to the loopback service");
        (
            Daemon {
                cache,
                fingerprint,
                client,
                thread,
            },
            setup_s,
            open_s,
        )
    }

    /// Asks the daemon to shut down and waits for it.
    fn stop(self) -> Arc<VerdictCache> {
        self.client.shutdown().expect("shutdown");
        self.thread
            .join()
            .expect("daemon thread")
            .expect("daemon serve loop");
        self.cache
    }
}

/// What one pass of the batch sequence through the daemon measured.
#[derive(Debug, Default)]
struct Pass {
    submit_ms: Vec<f64>,
    jobs: u64,
    failed: u64,
    first_seen: u64,
    verdicts: Vec<Equivalence>,
    status: ServiceStatus,
    persist_ms: f64,
    wall_s: f64,
    layers: Metrics,
}

/// Copies the pre-built snapshot to a pass-private path (persisting at
/// shutdown overwrites the file).
fn fresh_copy(snapshot: &Path, tag: &str) -> PathBuf {
    let copy = snapshot.with_extension(tag);
    std::fs::copy(snapshot, &copy).expect("copy cache snapshot");
    copy
}

/// Runs the batch sequence against `daemon`. With a tracer, every job's
/// content hash and cache lookup are timed on the client first.
fn drive(
    mut daemon: Daemon,
    seed: u64,
    batches: usize,
    checker: Option<&mut VerdictChecker>,
    tracer: Option<&Tracer>,
) -> Pass {
    let mut pass = Pass::default();
    let mut checker = checker;
    let mut schedule = Schedule::new(seed);
    let (mut hash_ns, mut get_ns, mut hits) = (0u64, 0u64, 0u64);
    let mut checking_s = 0.0;
    let start = Instant::now();
    for b in 0..batches {
        let generating = tracer.map(|t| t.now_ns());
        let batch = schedule.next_batch(b);
        if let (Some(tracer), Some(s)) = (tracer, generating) {
            tracer.record("bench.generate", s, tracer.now_ns(), None, b as u64);
        }
        pass.jobs += batch.jobs.len() as u64;
        pass.first_seen += batch.first_seen as u64;
        if let Some(tracer) = tracer {
            for (slot, job) in batch.jobs.iter().enumerate() {
                let id = (b * BATCH + slot) as u64;
                let t0 = tracer.now_ns();
                let key = CacheKey {
                    scalar: structural_hash(&job.scalar),
                    candidate: structural_hash_in_env(
                        &job.candidate,
                        job.scalar.params.iter().map(|p| p.name.as_str()),
                    ),
                    config: daemon.fingerprint,
                };
                let t1 = tracer.now_ns();
                let hit = daemon.cache.get(&key).is_some();
                let t2 = tracer.now_ns();
                tracer.record("cir.hash", t0, t1, None, id);
                tracer.record("core.cache.get", t1, t2, None, id);
                hash_ns += t1 - t0;
                get_ns += t2 - t1;
                hits += u64::from(hit);
            }
        }
        let t0 = Instant::now();
        let span_start = tracer.map(|t| t.now_ns());
        let result = daemon.client.submit(&batch.jobs);
        pass.submit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let (Some(tracer), Some(s)) = (tracer, span_start) {
            tracer.record("core.service.submit", s, tracer.now_ns(), None, b as u64);
        }
        let checking = Instant::now();
        match result {
            Ok(frames) if frames.len() == batch.jobs.len() => {
                for (job, frame) in batch.jobs.iter().zip(&frames) {
                    pass.verdicts.push(frame.verdict.verdict);
                    if let Some(checker) = checker.as_deref_mut() {
                        checker.check(
                            &job.label,
                            &job.scalar,
                            &job.candidate,
                            frame.verdict.verdict,
                            frame.verdict.checksum,
                        );
                    }
                }
            }
            Ok(frames) => pass.failed += (batch.jobs.len() - frames.len()) as u64,
            Err(e) => {
                eprintln!("daemon_mixed: batch {} failed: {}", b, e);
                pass.failed += batch.jobs.len() as u64;
            }
        }
        checking_s += checking.elapsed().as_secs_f64();
    }
    // The loop's wall time without the oracle's share.
    pass.wall_s = start.elapsed().as_secs_f64() - checking_s;
    pass.status = daemon.client.status().expect("status");
    let cache = daemon.stop();
    let persist = Instant::now();
    cache.persist().expect("persist cache");
    pass.persist_ms = persist.elapsed().as_secs_f64() * 1e3;
    let gets = pass.jobs as f64;
    pass.layers.put(
        "cir.hash_us_per_job",
        ratio(hash_ns as f64 / 1e3, gets),
        "us",
    );
    pass.layers
        .put("core.cache.get_us", ratio(get_ns as f64 / 1e3, gets), "us");
    pass.layers
        .put("core.cache.hit_ratio", ratio(hits as f64, gets), "ratio");
    pass
}

/// The same batch sequence through `run_batch` on an in-process engine
/// whose cache starts from the same snapshot. Returns the per-layer
/// metrics, the stage runs, the cache misses and the run time in seconds.
fn inprocess(seed: u64, batches: usize, cache_path: &Path) -> (Metrics, u64, u64, f64) {
    let cache = Arc::new(VerdictCache::open(cache_path).expect("open cache snapshot"));
    let engine = VerificationEngine::new(cascade_config(ENGINE_THREADS).with_cache(cache));
    let mut schedule = Schedule::new(seed);
    let mut tracer = Tracer::new();
    let mut ran: Vec<JobReport> = Vec::new();
    let (mut stage_runs, mut misses, mut busy_s) = (0u64, 0u64, 0.0);
    let lo = tracer.now_ns();
    for b in 0..batches {
        let batch = schedule.next_batch(b);
        tracer.set_job_offset((b * BATCH) as u64);
        let t0 = Instant::now();
        let report = engine.run_batch_observed(&batch.jobs, &tracer);
        busy_s += t0.elapsed().as_secs_f64();
        misses += report.cache_misses as u64;
        stage_runs += report.stage_runs() as u64;
        ran.extend(report.jobs.into_iter().filter(|r| !r.cache_hit));
    }
    let hi = tracer.now_ns();
    let spans = tracer.into_spans();
    crate::write_trace("daemon_mixed", &spans);
    let reports: Vec<&JobReport> = ran.iter().collect();
    let (mut layers, coverage) = engine_layers(&spans, &reports, lo, hi);
    layers.put("trace.coverage_ratio", coverage, "ratio");
    (layers, stage_runs, misses, busy_s)
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, trace: bool, workdir: &Path) -> RunOutput {
    // A traced run makes three passes (plain, traced, in-process) instead of
    // one, so each covers half the batches: the run stays well inside its
    // time limit on a loaded host.
    let per_second = if trace {
        BATCHES_PER_SECOND / 2
    } else {
        BATCHES_PER_SECOND
    };
    let batches = (seconds as usize * per_second).max(1);
    std::fs::create_dir_all(workdir).expect("create work directory");
    let snapshot = workdir.join(format!("daemon-{}.lvcs", seed));
    {
        let schedule = Schedule::new(seed);
        write_snapshot(&snapshot, schedule.snapshot_contents()).expect("write cache snapshot");
    }

    // Set-up: open the snapshot, bind, serve, connect — repeated, median.
    let (mut setups, mut opens) = (Vec::new(), Vec::new());
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let copy = fresh_copy(&snapshot, &format!("setup{}", rep));
        let (started, setup_s, open_s) = Daemon::start(&copy);
        setups.push(setup_s);
        opens.push(open_s * 1e3);
        if let Some(previous) = daemon.replace(started) {
            Daemon::stop(previous);
        }
    }
    let daemon = daemon.expect("at least one set-up");

    let mut checker = VerdictChecker::new();
    let pass = drive(daemon, seed, batches, Some(&mut checker), None);
    let rss = peak_rss_mb();

    let mut out = RunOutput::new(pass.jobs);
    out.failed = pass.failed;
    let submit_s: f64 = pass.submit_ms.iter().sum::<f64>() / 1e3;
    let (n, decided, equivalent) = decided_counts(pass.verdicts.iter().copied());
    // Measurement rounds: consecutive half-second slices of the batch
    // sequence (see `RunOutput::put_rounds`), 215 round trips each, so p90
    // has 21 samples beyond it.
    let per_round = BATCHES_PER_SECOND / ROUNDS_PER_SECOND;
    let rounds: Vec<Round> = pass
        .submit_ms
        .chunks(per_round)
        .map(|chunk| Round {
            jobs: (chunk.len() * BATCH) as u64,
            seconds: chunk.iter().sum::<f64>() / 1e3,
            latency_ms: stats::sorted(chunk.to_vec()),
        })
        .collect();
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
    out.check = checker.result;

    out.record("batches", batches);
    out.record("jobs", pass.jobs);
    out.record("batch_size", BATCH);
    out.record("first_seen", pass.first_seen);
    out.record("snapshot_entries", SNAPSHOT_VARIANTS);
    out.record("variant_bases", Variants::new(seed).bases());
    out.record("engine_threads", ENGINE_THREADS);
    out.record("benchmark_threads", 1);
    out.record(
        "budgets",
        "alive2 1k, cunroll 10k, splitting 4k conflicts; alive2_chunks 1",
    );
    out.record("checksum", "ChecksumConfig::default (n=100, 3 trials)");
    out.record("status_stages", pass.status.stages);
    out.record("status_dedupe_hits", pass.status.dedupe_hits);
    out.record("latency", "per submit round trip of one 16-job batch");
    out.record("jobs_per_s", "jobs per second of submit round-trip time");

    if trace {
        let submit_us = ratio(submit_s * 1e6, pass.jobs as f64);
        let tracer = Tracer::new();
        let (traced_daemon, _, _) = Daemon::start(&fresh_copy(&snapshot, "traced"));
        let traced = drive(traced_daemon, seed, batches, None, Some(&tracer));
        let client_spans = tracer.into_spans();
        let (layers, stage_runs, misses, inproc_s) =
            inprocess(seed, batches, &fresh_copy(&snapshot, "inprocess"));
        let inproc_us = ratio(inproc_s * 1e6, pass.jobs as f64);
        out.layers.extend(layers);
        out.layers.extend(traced.layers);
        out.layers
            .put("core.cache.open_ms", stats::median(&opens), "ms");
        out.layers
            .put("core.cache.persist_ms", pass.persist_ms, "ms");
        out.layers
            .put("core.service.submit_us_per_job", submit_us, "us");
        out.layers
            .put("core.service.inprocess_us_per_job", inproc_us, "us");
        out.layers
            .put("core.service.overhead_x", ratio(submit_us, inproc_us), "x");
        out.layers.put(
            "core.service.redundant_runs",
            pass.status.stages as f64 - stage_runs as f64,
            "count",
        );
        out.layers
            .put("core.service.stages", pass.status.stages as f64, "count");
        out.layers.put(
            "core.service.dedupe_hits",
            pass.status.dedupe_hits as f64,
            "count",
        );
        out.layers.put(
            "trace.overhead_ratio",
            traced.wall_s / pass.wall_s - 1.0,
            "ratio",
        );
        let client_self: u64 = trace::self_times(&client_spans).iter().sum();
        out.layers.put(
            "trace.client_span_ratio",
            ratio(client_self as f64 / 1e9, traced.wall_s),
            "ratio",
        );
        out.record("inprocess_misses", misses);
        out.record("expected_stage_runs", stage_runs);
        if traced.verdicts != pass.verdicts {
            out.trace_mismatch = true;
        }
    }
    for entry in std::fs::read_dir(workdir).into_iter().flatten().flatten() {
        let name = entry.file_name();
        if name
            .to_string_lossy()
            .starts_with(&format!("daemon-{}.", seed))
        {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    out
}
