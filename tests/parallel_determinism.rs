//! Determinism of the parallel solving modes.
//!
//! The parallel layer promises *bit-identical* results for any
//! `--jobs` value: object-partitioned versioning assigns the same slot
//! ids as the sequential pass by construction, and Andersen's wave mode
//! converges on the same unique least fixpoint as the sequential
//! worklist. These tests drive the full pipeline at `--jobs 1/2/8` over
//! the corpus and generated workloads and demand equality, then check
//! the solvers against each other (SFS == VSFS everywhere, dense == VSFS
//! on call-free programs) with every parallel phase enabled. Random
//! workloads add checker findings to the compared observations.

use vsfs::prelude::*;
use vsfs_andersen::AndersenConfig;
use vsfs_checkers::{run_checkers, Finding, FlowView};
use vsfs_core::queries::AliasQueries;
use vsfs_core::result::precision_diff;
use vsfs_core::{IncrementalOptions, SolverKind};
use vsfs_testkit::Rng;
use vsfs_workloads::gen::{generate, WorkloadConfig};

const JOB_COUNTS: [usize; 3] = [1, 2, 8];

/// Random-workload cases per property test.
const CASES: u32 = 16;

fn test_programs() -> Vec<(String, Program)> {
    let mut progs: Vec<(String, Program)> = vsfs_workloads::corpus::corpus()
        .into_iter()
        .map(|p| (p.name.to_string(), parse_program(p.source).unwrap()))
        .collect();
    for seed in 0..6 {
        let cfg = WorkloadConfig { seed, ..WorkloadConfig::small() };
        progs.push((format!("small seed {seed}"), generate(&cfg)));
    }
    let heavy = WorkloadConfig {
        seed: 424,
        loads_per_block: 4,
        stores_per_block: 2,
        load_chain: 3,
        heap_fraction: 0.7,
        array_fraction: 0.6,
        indirect_call_fraction: 0.4,
        backward_call_fraction: 0.15,
        ..WorkloadConfig::small()
    };
    progs.push(("heavy seed 424".to_string(), generate(&heavy)));
    progs
}

/// Runs the whole pipeline — parallel Andersen, memory SSA, SVFG,
/// parallel versioning, VSFS main phase — with `jobs` workers.
fn pipeline_at(prog: &Program, jobs: usize) -> FlowSensitiveResult {
    let aux = andersen::analyze_with_config(prog, AndersenConfig::with_jobs(jobs));
    let mssa = MemorySsa::build(prog, &aux);
    let svfg = Svfg::build(prog, &aux, &mssa);
    vsfs_jobs(prog, &aux, (&mssa, &svfg), jobs)
}

/// An ungoverned VSFS solve with `jobs` versioning workers.
fn vsfs_jobs(
    prog: &Program,
    aux: &andersen::AndersenResult,
    staged: (&MemorySsa, &Svfg),
    jobs: usize,
) -> FlowSensitiveResult {
    let opts = IncrementalOptions { solver: SolverKind::Vsfs, jobs };
    vsfs_core::solve(prog, aux, Some(staged), &opts, None).result
}

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

/// The checker findings a client sees for one flow-sensitive result.
fn findings(prog: &Program, r: &FlowSensitiveResult, svfg: &Svfg) -> Vec<Finding> {
    run_checkers(prog, svfg, &FlowView(r))
}

/// Asserts that every client-visible alias query answers the same under
/// `a` and `b`.
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

fn sorted_edges(r: &FlowSensitiveResult) -> Vec<(vsfs_ir::InstId, vsfs_ir::FuncId)> {
    let mut e = r.callgraph_edges.clone();
    e.sort();
    e
}

#[test]
fn full_pipeline_is_bit_identical_across_job_counts() {
    for (name, prog) in test_programs() {
        let base = pipeline_at(&prog, JOB_COUNTS[0]);
        for &jobs in &JOB_COUNTS[1..] {
            let other = pipeline_at(&prog, jobs);
            for v in prog.values.indices() {
                assert_eq!(
                    base.value_pts(v),
                    other.value_pts(v),
                    "{name}: pt(%{}) differs at jobs={jobs}",
                    prog.values[v].name
                );
            }
            assert_eq!(
                sorted_edges(&base),
                sorted_edges(&other),
                "{name}: call graph differs at jobs={jobs}"
            );
            // The hash-consed store must end up bit-identical too: the
            // same canonical sets get interned in the same order for
            // every worker count.
            assert_eq!(
                base.stats.store.unique_sets, other.stats.store.unique_sets,
                "{name}: unique interned set count differs at jobs={jobs}"
            );
            assert_eq!(
                base.stats.store.unique_set_bytes, other.stats.store.unique_set_bytes,
                "{name}: interned set bytes differ at jobs={jobs}"
            );
            // Client-visible query answers must not depend on `--jobs`.
            assert_same_queries(&prog, &base, &other, &format!("{name} jobs={jobs}"));
        }
    }
}

/// VSFS on random workloads: every versioning job count yields the same
/// result, the same query answers, and the same checker findings.
#[test]
fn vsfs_is_identical_across_jobs() {
    vsfs_testkit::check_cases("parallel::vsfs_jobs", CASES, |rng| {
        let cfg = random_config(rng);
        let prog = generate(&cfg);
        let aux = andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);

        let base = vsfs_jobs(&prog, &aux, (&mssa, &svfg), JOB_COUNTS[0]);
        let base_findings = findings(&prog, &base, &svfg);
        for &jobs in &JOB_COUNTS[1..] {
            let ctx = format!("seed {} jobs {jobs}", cfg.seed);
            let r = vsfs_jobs(&prog, &aux, (&mssa, &svfg), jobs);
            if let Some(diff) = precision_diff(&prog, &base, &r) {
                panic!("{ctx}: {diff}");
            }
            assert_same_queries(&prog, &base, &r, &ctx);
            assert_eq!(base_findings, findings(&prog, &r, &svfg), "{ctx}: findings");
        }
    });
}

/// SFS on random workloads agrees with VSFS at every job count, on
/// points-to sets, the call graph and checker findings (the paper's
/// equivalence, independent of `--jobs`).
#[test]
fn sfs_agrees_with_vsfs_across_jobs() {
    vsfs_testkit::check_cases("parallel::sfs_vs_vsfs_jobs", CASES, |rng| {
        let cfg = random_config(rng);
        let prog = generate(&cfg);
        let aux = andersen::analyze(&prog);
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);

        let sfs = run_sfs(&prog, &aux, &mssa, &svfg);
        let sfs_findings = findings(&prog, &sfs, &svfg);
        for &jobs in &JOB_COUNTS {
            let vsfs = vsfs_jobs(&prog, &aux, (&mssa, &svfg), jobs);
            if let Some(diff) = precision_diff(&prog, &sfs, &vsfs) {
                panic!("seed {}: sfs vs vsfs at jobs {jobs}: {diff}", cfg.seed);
            }
            assert_eq!(
                sfs_findings,
                findings(&prog, &vsfs, &svfg),
                "seed {}: sfs and vsfs findings differ at jobs {jobs}",
                cfg.seed
            );
        }
    });
}

#[test]
fn andersen_wave_mode_matches_sequential_everywhere() {
    for (name, prog) in test_programs() {
        let seq = andersen::analyze(&prog);
        for &jobs in &JOB_COUNTS[1..] {
            let wave = andersen::analyze_with_config(&prog, AndersenConfig::with_jobs(jobs));
            for v in prog.values.indices() {
                assert_eq!(
                    seq.value_pts(v).iter().collect::<Vec<_>>(),
                    wave.value_pts(v).iter().collect::<Vec<_>>(),
                    "{name}: Andersen pt(%{}) differs at jobs={jobs}",
                    prog.values[v].name
                );
            }
            for o in prog.objects.indices() {
                assert_eq!(
                    seq.object_pts(o).iter().collect::<Vec<_>>(),
                    wave.object_pts(o).iter().collect::<Vec<_>>(),
                    "{name}: Andersen object pts differ at jobs={jobs}"
                );
            }
            let edges = |r: &vsfs_andersen::AndersenResult| {
                let mut e: Vec<_> = r.callgraph.edges().collect();
                e.sort();
                e
            };
            assert_eq!(edges(&seq), edges(&wave), "{name}: call graph differs at jobs={jobs}");
        }
    }
}

#[test]
fn solvers_agree_with_all_parallel_phases_enabled() {
    // Cross-solver equivalence under the parallel pipeline: SFS == VSFS
    // on every program, and dense == VSFS on call-free programs (the
    // two formulations only coincide without call boundaries — see
    // tests/dense_baseline.rs).
    for (name, prog) in test_programs() {
        let aux = andersen::analyze_with_config(&prog, AndersenConfig::with_jobs(8));
        let mssa = MemorySsa::build(&prog, &aux);
        let svfg = Svfg::build(&prog, &aux, &mssa);
        let sfs = run_sfs(&prog, &aux, &mssa, &svfg);
        let vsfs = vsfs_jobs(&prog, &aux, (&mssa, &svfg), 8);
        if let Some(diff) = precision_diff(&prog, &sfs, &vsfs) {
            panic!("{name}: SFS and VSFS disagree under parallel phases: {diff}");
        }
        let has_calls = prog.insts.iter().any(|i| matches!(i.kind, vsfs_ir::InstKind::Call { .. }));
        if !has_calls {
            let dense = vsfs_core::run_dense(&prog, &aux);
            for v in prog.values.indices() {
                assert_eq!(
                    dense.value_pts(v),
                    vsfs.value_pts(v),
                    "{name}: dense and VSFS differ on call-free %{}",
                    prog.values[v].name
                );
            }
        }
    }
}
