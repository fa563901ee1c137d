//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! vsfs-perfbench --workload bake-vsfs|bake-cfgfree|ninja-serve
//!                [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root (the serve workload reads the checker
//! corpus from `workloads/checkers`). Every metric is printed with its
//! unit and sample count; the last line of standard output is the JSON
//! result. A traced run also writes its spans and counters to
//! `perfbench/traces/<workload>-<seed>.jsonl`.

use std::path::Path;
use std::process::ExitCode;
use vsfs_adt::mem::CountingAlloc;
use vsfs_perfbench::batch::{self, BatchSolver};
use vsfs_perfbench::trace::Tracer;
use vsfs_perfbench::{serve, Workload, DEFAULT_SEED};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 18.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: vsfs-perfbench --workload bake-vsfs|bake-cfgfree|ninja-serve \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let corpus = Path::new("workloads/checkers");
    if !corpus.is_dir() {
        eprintln!("error: run from the repository root ({} not found)", corpus.display());
        return ExitCode::from(2);
    }
    let mut tracer = Tracer::new(args.trace);
    let report = match args.workload {
        Workload::BakeVsfs => {
            batch::run("bake", BatchSolver::Vsfs, args.seed, args.seconds, &mut tracer)
        }
        Workload::BakeCfgfree => {
            batch::run("bake", BatchSolver::Cfgfree, args.seed, args.seconds, &mut tracer)
        }
        Workload::NinjaServe => serve::run("ninja", args.seed, args.seconds, corpus, &mut tracer),
    };
    if args.trace {
        let path = format!("perfbench/traces/{}-{}.jsonl", args.workload.name(), args.seed);
        match tracer.write(Path::new(&path), &report.counters) {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    println!("workload {} seed {} trace {}", args.workload.name(), args.seed, u8::from(args.trace));
    for line in report.human_lines() {
        println!("{line}");
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
