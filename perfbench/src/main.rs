//! The PerfXplain benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <session_blocked|ingest_journaled|paper_eval> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it runs the workload once untraced and once with spans
//! around every call into a layer, then reports the per-layer metrics and
//! the tracing overhead.  Report lines go to stdout first; the last stdout
//! line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.  Spans and a full result record are written under
//! `.bench_out/` in the working directory.

mod driver;
mod ingest;
mod layers;
mod paper;
mod report;
mod served;
mod session;
mod stats;
mod trace;

use report::RunResult;
use std::process::ExitCode;
use trace::Tracer;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["session_blocked", "ingest_journaled", "paper_eval"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, tracer: Option<&Tracer>) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "session_blocked" => session::run(args.seed, args.seconds, tracer),
        "ingest_journaled" => ingest::run(args.seed, args.seconds, tracer),
        "paper_eval" => paper::run(args.seed, args.seconds, tracer),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let out_dir = std::path::Path::new(".bench_out");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let untraced = match run(&args, None) {
        Ok(result) => result,
        Err(message) => {
            eprintln!("perfbench: {} failed: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let result = if args.trace {
        let tracer = Tracer::new();
        let traced = match run(&args, Some(&tracer)) {
            Ok(result) => result,
            Err(message) => {
                eprintln!("perfbench: traced {} failed: {message}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        let spans = out_dir.join(format!("{tag}-spans.jsonl"));
        if let Err(e) = tracer.write_jsonl(&spans) {
            eprintln!("perfbench: cannot write {}: {e}", spans.display());
            return ExitCode::FAILURE;
        }
        let mut traced = traced.with_overhead_against(&untraced);
        traced.notes.extend(trace::summary(&tracer.spans()));
        traced
    } else {
        untraced
    };
    let env = report::environment(&args.workload, args.seed, args.seconds, args.trace);
    let record = out_dir.join(format!("{tag}.json"));
    print!("{}", result.report(&env));
    if let Err(e) = std::fs::write(&record, result.record_json(&env)) {
        eprintln!("perfbench: cannot write {}: {e}", record.display());
        return ExitCode::FAILURE;
    }
    println!("{}", result.result_line(args.trace));
    if result.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        for problem in &result.problems {
            eprintln!("perfbench: check failed: {problem}");
        }
        ExitCode::FAILURE
    }
}
