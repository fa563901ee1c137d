//! Order-independence of the scheduled fixpoint engine.
//!
//! The worklist order (`--order fifo|topo`) and the worker count
//! (`--jobs`) are pure scheduling choices: the solvers compute the
//! unique least fixpoint of a monotone system, so every combination
//! must produce bit-identical points-to sets, call graphs, client
//! query answers, and checker findings. These tests drive random
//! workloads through every `order x jobs` combination and demand
//! equality — the contract the scheduling benchmark's `check_identical`
//! also enforces on the big suite workloads.

use vsfs::prelude::*;
use vsfs_checkers::{run_checkers, Finding, FlowView};
use vsfs_core::queries::AliasQueries;
use vsfs_core::result::precision_diff;
use vsfs_core::{IncrementalOptions, SolveOrder, SolverKind};
use vsfs_testkit::Rng;
use vsfs_workloads::gen::{generate, WorkloadConfig};

const CASES: u32 = 16;
const ORDERS: [SolveOrder; 2] = [SolveOrder::Fifo, SolveOrder::Topo];
const JOB_COUNTS: [usize; 3] = [1, 2, 8];

/// A random configuration space around `WorkloadConfig::small`, biased
/// toward indirect calls so on-the-fly activation (the one scheduling
/// path that grows the graph mid-solve) is exercised.
fn random_config(rng: &mut Rng) -> WorkloadConfig {
    WorkloadConfig {
        seed: rng.next_u64(),
        functions: rng.gen_range(2usize..8),
        segments: rng.gen_range(1usize..5),
        loads_per_block: rng.gen_range(0usize..4),
        stores_per_block: rng.gen_range(0usize..3),
        load_chain: rng.gen_range(0usize..4),
        heap_fraction: rng.gen_range(0.0f64..1.0),
        array_fraction: rng.gen_range(0.0f64..1.0),
        indirect_call_fraction: rng.gen_range(0.1f64..0.6),
        backward_call_fraction: rng.gen_range(0.0f64..0.4),
        deref_chain: rng.gen_range(0.0f64..0.6),
        ..WorkloadConfig::small()
    }
}

/// One ungoverned `kind` solve under `order`, versioning with `jobs`
/// workers.
fn solve(
    kind: SolverKind,
    prog: &Program,
    aux: &andersen::AndersenResult,
    staged: (&MemorySsa, &Svfg),
    jobs: usize,
    order: SolveOrder,
) -> FlowSensitiveResult {
    let opts = IncrementalOptions { solver: kind, config: order.into(), jobs };
    vsfs_core::solve(prog, aux, Some(staged), &opts, None).result
}

/// Everything a client can observe from one flow-sensitive run.
fn observe(prog: &Program, r: &FlowSensitiveResult, svfg: &Svfg) -> Vec<Finding> {
    run_checkers(prog, svfg, &FlowView(r))
}

fn assert_same_queries(
    prog: &Program,
    a: &FlowSensitiveResult,
    b: &FlowSensitiveResult,
    ctx: &str,
) {
    let qa = AliasQueries::new(prog, a);
    let qb = AliasQueries::new(prog, b);
    let mut prev = None;
    for v in prog.values.indices() {
        assert_eq!(qa.unique_target(v), qb.unique_target(v), "{ctx}: unique_target");
        assert_eq!(qa.is_empty(v), qb.is_empty(v), "{ctx}: is_empty");
        assert_eq!(qa.may_point_to_heap(v), qb.may_point_to_heap(v), "{ctx}: heap");
        if let Some(p) = prev {
            assert_eq!(qa.may_alias(p, v), qb.may_alias(p, v), "{ctx}: may_alias");
        }
        prev = Some(v);
    }
}

/// VSFS: every `order x jobs` combination yields the same result, the
/// same query answers, and the same checker findings.
#[test]
fn vsfs_is_identical_across_orders_and_jobs() {
    vsfs_testkit::check_cases("scheduling::vsfs_orders_and_jobs", CASES, |rng| {
        let cfg = random_config(rng);
        let prog = generate(&cfg);
        let aux = andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);

        let base = solve(SolverKind::Vsfs, &prog, &aux, (&mssa, &svfg), 1, ORDERS[0]);
        let base_findings = observe(&prog, &base, &svfg);
        for &order in &ORDERS {
            for &jobs in &JOB_COUNTS {
                if (order, jobs) == (ORDERS[0], 1) {
                    continue;
                }
                let ctx = format!("seed {} order {} jobs {jobs}", cfg.seed, order.name());
                let r = solve(SolverKind::Vsfs, &prog, &aux, (&mssa, &svfg), jobs, order);
                if let Some(diff) = precision_diff(&prog, &base, &r) {
                    panic!("{ctx}: {diff}");
                }
                assert_same_queries(&prog, &base, &r, &ctx);
                assert_eq!(base_findings, observe(&prog, &r, &svfg), "{ctx}: findings");
            }
        }
    });
}

/// SFS: both orders yield the same result and findings, and agree with
/// VSFS under either order (the paper's equivalence, order-independent).
#[test]
fn sfs_orders_agree_with_each_other_and_with_vsfs() {
    vsfs_testkit::check_cases("scheduling::sfs_orders", CASES, |rng| {
        let cfg = random_config(rng);
        let prog = generate(&cfg);
        let aux = andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);

        let fifo = solve(SolverKind::Sfs, &prog, &aux, (&mssa, &svfg), 1, SolveOrder::Fifo);
        let topo = solve(SolverKind::Sfs, &prog, &aux, (&mssa, &svfg), 1, SolveOrder::Topo);
        if let Some(diff) = precision_diff(&prog, &fifo, &topo) {
            panic!("seed {}: sfs fifo vs topo: {diff}", cfg.seed);
        }
        assert_eq!(
            observe(&prog, &fifo, &svfg),
            observe(&prog, &topo, &svfg),
            "seed {}: sfs findings differ across orders",
            cfg.seed
        );
        let vsfs = solve(SolverKind::Vsfs, &prog, &aux, (&mssa, &svfg), 1, SolveOrder::Topo);
        if let Some(diff) = precision_diff(&prog, &fifo, &vsfs) {
            panic!("seed {}: sfs vs vsfs(topo): {diff}", cfg.seed);
        }
    });
}
