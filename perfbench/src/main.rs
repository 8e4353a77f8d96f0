//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints every metric by name with its unit, the
//! reproducibility record, and — as the last line — one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics for
//! `--trace 0`, per-layer metrics for `--trace 1`). Exits 1 when an output
//! is wrong or an operation failed, 2 on bad arguments.

use lv_perfbench::common::{nproc, Metrics};
use lv_perfbench::{daemon, passk, tsvc, workdir, RunOutput, END_TO_END, WORKLOADS};
use std::process::ExitCode;

/// A seed reserved for confirming later performance claims; never used
/// while this benchmark was tuned.
const HOLDOUT_SEED: u64 = 20_261_017;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{} needs a value", flag))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{} expects a non-negative integer", flag))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown argument `{}`", other)),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (expected one of {})",
            workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
    })
}

fn json_metrics(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", name, value, unit)
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {}", e);
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let run = std::panic::catch_unwind(|| match args.workload.as_str() {
        "tsvc_cascade" => tsvc::run(args.seed, args.trace),
        "passk_checksum" => passk::run(args.seed, args.seconds, args.trace),
        _ => daemon::run(args.seed, args.seconds, args.trace, &workdir()),
    });
    let out = match run {
        Ok(out) => out,
        Err(_) => {
            eprintln!("perfbench: the workload panicked");
            let mut out = RunOutput::new(1);
            out.failed = 1;
            out
        }
    };

    println!(
        "record: workload={} seed={} seconds={} trace={} nproc={} commit={} holdout_seed={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        std::env::var("LV_PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        HOLDOUT_SEED
    );
    for (key, value) in &out.record {
        println!("record: {}={}", key, value);
    }
    for example in &out.check.examples {
        println!("oracle: {}", example);
    }
    let mut end_to_end = Metrics::default();
    for (name, unit) in END_TO_END {
        end_to_end.put(name, out.e2e.get(name).unwrap_or(0.0), unit);
    }
    let per_layer = out.per_layer();
    for (name, value, unit) in end_to_end.0.iter().chain(&per_layer.0) {
        println!("metric: {} = {} {}", name, value, unit);
    }
    let metrics = if args.trace { per_layer } else { end_to_end };
    let correct = out.correct();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        correct,
        out.attempted.max(1),
        out.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
