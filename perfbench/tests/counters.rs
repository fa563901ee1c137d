//! The benchmark's own checks, on the small `du` shape: every work
//! counter repeats exactly across runs of one seed and between the
//! traced and untraced runs, every run's outputs check out, and the
//! metric lists match `BENCHMARK.json`.

use std::path::PathBuf;
use vsfs_adt::mem::CountingAlloc;
use vsfs_perfbench::batch::{self, BatchSolver};
use vsfs_perfbench::trace::Tracer;
use vsfs_perfbench::{serve, Report, Workload, END_TO_END, PER_LAYER};
use vsfs_server::json::{self, Json};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const SEED: u64 = 7;

fn corpus() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../workloads/checkers")
}

fn batch_run(solver: BatchSolver, trace: bool) -> Report {
    batch::run("du", solver, SEED, 0.01, &mut Tracer::new(trace))
}

fn serve_run(trace: bool) -> Report {
    serve::run("du", SEED, 0.01, &corpus(), &mut Tracer::new(trace))
}

fn assert_repeats(first: Report, again: Report, traced: Report, names: &[&str]) {
    for r in [&first, &again, &traced] {
        assert!(r.correct(), "failures: {:?}", r.failures);
    }
    for name in names {
        assert!(first.counters.contains_key(name), "counter {name} missing");
    }
    assert_eq!(first.counters, again.counters, "counters differ between untraced runs");
    assert_eq!(first.counters, traced.counters, "counters differ between traced and untraced runs");
    let reported = |r: &Report| r.metrics.keys().copied().collect::<Vec<_>>();
    let mut e2e: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
    let mut layers: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
    e2e.sort_unstable();
    layers.sort_unstable();
    assert_eq!(reported(&first), e2e);
    assert_eq!(reported(&traced), layers);
    for (name, m) in &first.metrics {
        assert!(m.value > 0.0, "end-to-end metric {name} reads {}", m.value);
    }
}

#[test]
fn vsfs_counters_repeat() {
    let names = ["versioning.versions", "vsfs.node_pops", "vsfs.slot_pops", "ptstore.unique_sets"];
    let runs = [false, false, true].map(|t| batch_run(BatchSolver::Vsfs, t));
    let [first, again, traced] = runs;
    assert_repeats(first, again, traced, &names);
}

#[test]
fn cfgfree_counters_repeat() {
    let names = ["cfgfree.node_pops", "cfgfree.stored_object_sets", "ptstore.unique_sets"];
    let runs = [false, false, true].map(|t| batch_run(BatchSolver::Cfgfree, t));
    let [first, again, traced] = runs;
    assert_repeats(first, again, traced, &names);
}

#[test]
fn serve_counters_repeat() {
    let names = ["incremental.dirty_nodes", "incremental.carried_sets", "checkers.findings"];
    let runs = [false, false, true].map(serve_run);
    assert!(runs[0].counters["checkers.findings"] > 0, "the serve shape must have findings");
    let [first, again, traced] = runs;
    assert_repeats(first, again, traced, &names);
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let pairs = |key: &str, field: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let get = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
                (get("name"), get(field))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(pairs("end_to_end", "unit"), own(END_TO_END));
    assert_eq!(pairs("per_layer", "unit"), own(PER_LAYER));
    let workloads: Vec<String> = pairs("workloads", "why").into_iter().map(|(n, _)| n).collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}
