//! Memory benchmark of the deduplicated points-to store: peak live-heap
//! and end-to-end time for the full VSFS pipeline on suite workloads,
//! plus the chunked store's counters (unique sets/chunks, payload vs
//! flat-equivalent bytes, chunk and set-level memo hit rates).
//!
//! ```text
//! dedup_mem [WORKLOADS] [--out FILE] [--gate FILE]
//! ```
//!
//! `WORKLOADS` is a comma-separated list of suite benchmark names
//! (default `du,ninja,bake` — one per size profile). Without `--gate`,
//! the run writes `results/BENCH_dedup.json` (`PhaseTimer::to_json`
//! format, `schema` counter = 3: end-to-end seconds per workload in
//! `phases`, peak bytes and the store counters in `counters`).
//!
//! With `--gate FILE` the run is the CI MDE gate and fails (exit 1) on
//! any of:
//!
//! * a workload's peak live-heap regressing more than 10% over the
//!   recorded baseline in `FILE`;
//! * the `bake` set payload (`unique_set_bytes`) shrinking less than
//!   25% against the flat one-block-per-chunk equivalent
//!   (`flat_equiv_bytes`) — the chunking has stopped paying for itself.
//!
//! Timings are not gated: wall clock is machine-dependent, peak live
//! bytes under the counting allocator and the dedup counters are not.

use std::time::Instant;
use vsfs_adt::mem::{CountingAlloc, MemScope};
use vsfs_adt::stats::PhaseTimer;
use vsfs_bench::format::{read_counter, write_json_report};
use vsfs_mssa::MemorySsa;
use vsfs_svfg::Svfg;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// `counters.schema` in the emitted JSON; bump when keys change shape.
const SCHEMA: u64 = 3;

/// Peak regression tolerated by `--gate` before it fails.
const PEAK_SLACK: f64 = 1.10;

/// Minimum `bake` payload reduction vs the flat-equivalent footprint.
const MIN_PAYLOAD_REDUCTION: f64 = 0.25;

/// The workload whose payload reduction is gated.
const GATED_WORKLOAD: &str = "bake";

fn main() {
    let mut names: Vec<String> = vec!["du".into(), "ninja".into(), "bake".into()];
    let mut out = "results/BENCH_dedup.json".to_string();
    let mut gate: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--gate" => gate = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => {
                names = other.split(',').map(|s| s.trim().to_string()).collect();
            }
            _ => usage(),
        }
    }

    let baseline = gate.as_ref().map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(1);
        })
    });

    let mut timer = PhaseTimer::new();
    timer.count("schema", SCHEMA);
    let mut failures = Vec::new();
    for name in &names {
        let spec = vsfs_workloads::suite::benchmark(name).unwrap_or_else(|| {
            eprintln!("unknown workload `{name}`");
            std::process::exit(2);
        });
        let prog = vsfs_workloads::generate(&spec.config);

        // Measure the whole flow-sensitive pipeline: the store is shared
        // across Andersen interning, SFS-style top-level state and the
        // versioned slots, so peak heap is only meaningful end-to-end.
        let scope = MemScope::start();
        let t = Instant::now();
        let aux = vsfs_andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let result = vsfs_core::run_vsfs(&prog, &aux, &mssa, &svfg);
        let elapsed = t.elapsed();
        let peak = scope.peak_bytes();

        let s = result.stats.store;
        timer.record(&format!("{name}.total"), elapsed);
        timer.count(&format!("{name}.peak_bytes"), peak as u64);
        // Level 1: the chunked, hash-consed set store.
        timer.count(&format!("{name}.unique_sets"), s.unique_sets as u64);
        timer.count(&format!("{name}.unique_set_bytes"), s.unique_set_bytes as u64);
        timer.count(&format!("{name}.flat_equiv_bytes"), s.flat_equiv_bytes as u64);
        timer.count(&format!("{name}.unique_chunks"), s.unique_chunks as u64);
        timer.count(&format!("{name}.chunk_bytes"), s.chunk_bytes as u64);
        timer.count(&format!("{name}.chunk_union_hits"), s.chunk_union_hits as u64);
        timer.count(&format!("{name}.chunk_union_misses"), s.chunk_union_misses as u64);
        timer.count(&format!("{name}.stored_object_sets"), result.stats.stored_object_sets as u64);
        timer.count(&format!("{name}.union_hits"), s.union_hits as u64);
        timer.count(&format!("{name}.union_misses"), s.union_misses as u64);
        timer.count(&format!("{name}.union_shortcuts"), s.union_shortcuts as u64);
        timer.count(&format!("{name}.union_hit_rate_x100"), (s.union_hit_rate() * 100.0) as u64);
        timer.count(&format!("{name}.insert_hits"), s.insert_hits as u64);
        timer.count(&format!("{name}.insert_misses"), s.insert_misses as u64);

        let reduction = payload_reduction(s.unique_set_bytes, s.flat_equiv_bytes);
        println!(
            "{name}: {:.3}s, peak {:.2} MiB, {} unique sets ({:.2} MiB payload, {:.1}% below \
             flat) in {} chunks, union hit rate {:.1}%",
            elapsed.as_secs_f64(),
            peak as f64 / (1 << 20) as f64,
            s.unique_sets,
            s.unique_set_bytes as f64 / (1 << 20) as f64,
            100.0 * reduction,
            s.unique_chunks,
            100.0 * s.union_hit_rate(),
        );

        if let Some(base) = &baseline {
            let key = format!("{name}.peak_bytes");
            match read_counter(base, &key) {
                Some(base_peak) => {
                    let limit = (base_peak as f64 * PEAK_SLACK) as u64;
                    if peak as u64 > limit {
                        failures.push(format!(
                            "{name}: peak {peak} bytes exceeds baseline {base_peak} by more \
                             than {:.0}% (limit {limit})",
                            (PEAK_SLACK - 1.0) * 100.0
                        ));
                    } else {
                        println!(
                            "{name}: peak within {:.0}% of baseline ({base_peak} bytes)",
                            (PEAK_SLACK - 1.0) * 100.0
                        );
                    }
                }
                None => failures.push(format!("{name}: baseline has no `{key}` counter")),
            }
            if name == GATED_WORKLOAD && reduction < MIN_PAYLOAD_REDUCTION {
                failures.push(format!(
                    "{name}: set payload only {:.1}% below flat-equivalent (need >= {:.0}%)",
                    100.0 * reduction,
                    100.0 * MIN_PAYLOAD_REDUCTION
                ));
            }
        }
    }

    if gate.is_some() {
        if failures.is_empty() {
            println!("MDE gate OK: peak within bounds, payload dedup active");
            return;
        }
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }

    write_json_report(&out, &timer.to_json());
}

/// Fraction of the flat-equivalent footprint the chunked payload saves.
fn payload_reduction(payload: usize, flat: usize) -> f64 {
    if flat == 0 {
        return 0.0;
    }
    1.0 - payload as f64 / flat as f64
}

fn usage() -> ! {
    eprintln!("usage: dedup_mem [WORKLOAD,WORKLOAD,...] [--out FILE] [--gate FILE]");
    std::process::exit(2);
}
