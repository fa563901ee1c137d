//! Incremental ≡ from-scratch: the differential edit-sequence suite.
//!
//! Drives random function-granularity edit sequences from
//! `vsfs_workloads::edit_script` through the incremental engine
//! (`vsfs_core::resolve_edit`) and checks after *every* edit that the
//! incrementally re-solved state is bit-identical to a from-scratch
//! solve of the same source text:
//!
//! * every top-level points-to set and the resolved call graph
//!   (`precision_diff`), against from-scratch SFS **and** from-scratch
//!   VSFS at `jobs` 1, 2 and 8;
//! * sampled may-alias queries;
//! * the full memory-safety finding set;
//! * the deterministic result fingerprint.
//!
//! Seeds honour the shared property-test env knobs: replay one case
//! with `VSFS_PROP_SEED=0x…`, scale the count with `VSFS_PROP_CASES`.

use vsfs_checkers::{run_checkers, FlowView};
use vsfs_core::queries::AliasQueries;
use vsfs_core::result::precision_diff;
use vsfs_core::{
    resolve_edit, result_fingerprint, solve_program, FlowSensitiveResult, IncrementalOptions,
    ProgramState, SolverKind,
};
use vsfs_ir::Program;
use vsfs_testkit::Rng;
use vsfs_workloads::edit_script;
use vsfs_workloads::gen::WorkloadConfig;

const CASES: u32 = 10;

/// A random configuration with enough functions and edit surface to
/// produce interesting dirty regions.
fn random_config(rng: &mut Rng) -> WorkloadConfig {
    WorkloadConfig {
        seed: rng.next_u64(),
        functions: rng.gen_range(4usize..9),
        segments: rng.gen_range(1usize..4),
        loads_per_block: rng.gen_range(0usize..3),
        stores_per_block: rng.gen_range(1usize..3),
        load_chain: rng.gen_range(0usize..3),
        heap_fraction: rng.gen_f64(),
        indirect_call_fraction: rng.gen_range(0.0f64..0.5),
        backward_call_fraction: rng.gen_range(0.0f64..0.4),
        edit_fraction: rng.gen_range(0.3f64..0.8),
        ..WorkloadConfig::small()
    }
}

struct ColdPipeline {
    prog: Program,
    aux: vsfs_andersen::AndersenResult,
    mssa: vsfs_mssa::MemorySsa,
    svfg: vsfs_svfg::Svfg,
}

/// Parses `source` afresh — same text as the incremental engine saw, so
/// arena ids line up and results are directly comparable.
fn cold_pipeline(source: &str, jobs: usize) -> ColdPipeline {
    let prog = vsfs_ir::parse_program(source).expect("edit-script text parses");
    let aux =
        vsfs_andersen::analyze_with_config(&prog, vsfs_andersen::AndersenConfig::with_jobs(jobs));
    let mssa = vsfs_mssa::MemorySsa::build(&prog, &aux);
    let svfg = vsfs_svfg::Svfg::build(&prog, &aux, &mssa);
    ColdPipeline { prog, aux, mssa, svfg }
}

/// An ungoverned from-scratch `kind` solve of `cold`, versioning with
/// `jobs` workers.
fn solve_cold(kind: SolverKind, cold: &ColdPipeline, jobs: usize) -> FlowSensitiveResult {
    let opts = IncrementalOptions { solver: kind, jobs };
    vsfs_core::solve(&cold.prog, &cold.aux, Some((&cold.mssa, &cold.svfg)), &opts, None).result
}

/// Asserts the incremental `state` matches `cold_result` on points-to
/// sets, the call graph, sampled alias queries, findings, and the
/// fingerprint.
fn assert_matches(
    label: &str,
    state: &ProgramState,
    cold: &ColdPipeline,
    cold_result: &vsfs_core::FlowSensitiveResult,
    rng: &mut Rng,
) {
    assert!(state.analysis.is_complete(), "{label}: ungoverned solve must complete");
    if let Some(diff) = precision_diff(&state.prog, &state.analysis.result, cold_result) {
        panic!("{label}: incremental differs from from-scratch: {diff}");
    }
    // Alias queries are derived from the points-to sets, but exercise
    // the public query surface on a sample of value pairs.
    let inc_q = AliasQueries::new(&state.prog, &state.analysis.result);
    let cold_q = AliasQueries::new(&cold.prog, cold_result);
    let n = state.prog.values.len() as u64;
    for _ in 0..50 {
        let p = vsfs_ir::ValueId::new(rng.gen_range(0..n) as u32);
        let q = vsfs_ir::ValueId::new(rng.gen_range(0..n) as u32);
        assert_eq!(
            inc_q.may_alias(p, q),
            cold_q.may_alias(p, q),
            "{label}: may_alias({p:?}, {q:?}) differs"
        );
    }
    // Same text ⇒ same ids ⇒ findings are directly comparable.
    let svfg = state.svfg().expect("staged solver keeps its SVFG resident");
    let inc_findings = run_checkers(&state.prog, svfg, &FlowView(&state.analysis.result));
    let cold_findings = run_checkers(&cold.prog, &cold.svfg, &FlowView(cold_result));
    assert_eq!(inc_findings, cold_findings, "{label}: checker findings differ");
    assert_eq!(
        state.fingerprint,
        result_fingerprint(&cold.prog, &state.keys, cold_result),
        "{label}: fingerprints differ"
    );
}

/// The core property: for a random base program and a random 3-edit
/// script, every incrementally solved state equals a from-scratch solve
/// of the same text — under SFS and VSFS (jobs 1/2/8).
#[test]
fn edit_sequences_match_from_scratch_solves() {
    vsfs_testkit::check_cases("incremental::edit_sequences_match", CASES, |rng| {
        let cfg = random_config(rng);
        let script = edit_script(&cfg, rng.next_u64(), 3);
        let base_text = script.base.to_string();
        let opts = IncrementalOptions::default();
        let (mut state, _) = solve_program(&base_text, opts, None, None).expect("base solves");

        for (i, step) in script.steps.iter().enumerate() {
            let text = step.program.to_string();
            let (next, report) =
                resolve_edit(&state, &text, opts, None, None).expect("edit solves");
            let label = format!("step {i} (edit @{})", step.name);
            assert!(
                report.incremental,
                "{label}: warm state must be available after a complete solve"
            );

            // From-scratch SFS.
            let cold = cold_pipeline(&text, 1);
            let r = solve_cold(SolverKind::Sfs, &cold, 1);
            assert_matches(&format!("{label} vs sfs"), &next, &cold, &r, rng);
            // From-scratch VSFS at three parallelism levels.
            for jobs in [1, 2, 8] {
                let cold_j = cold_pipeline(&text, jobs);
                let r = solve_cold(SolverKind::Vsfs, &cold_j, jobs);
                assert_matches(&format!("{label} vs vsfs/j{jobs}"), &next, &cold_j, &r, rng);
            }
            state = next;
        }
    });
}

/// An identical-text edit invalidates nothing and preserves the
/// fingerprint, on generated programs of varying shape.
#[test]
fn noop_edits_invalidate_nothing() {
    vsfs_testkit::check_cases("incremental::noop_edits", CASES, |rng| {
        let cfg = random_config(rng);
        let script = edit_script(&cfg, rng.next_u64(), 1);
        let text = script.base.to_string();
        let (state, r0) = solve_program(&text, IncrementalOptions::default(), None, None).unwrap();
        let (_, r1) =
            resolve_edit(&state, &text, IncrementalOptions::default(), None, None).unwrap();
        assert!(r1.incremental);
        assert_eq!(r1.dirty_nodes, 0, "identical text must invalidate nothing");
        assert_eq!(r1.fingerprint, r0.fingerprint);
    });
}

/// A single-function edit must not invalidate the whole graph: the
/// dirty region is a strict subset on every generated case.
#[test]
fn localized_edits_dirty_strict_subsets() {
    vsfs_testkit::check_cases("incremental::localized_edits", CASES, |rng| {
        let cfg = random_config(rng);
        let script = edit_script(&cfg, rng.next_u64(), 1);
        let (state, _) =
            solve_program(&script.base.to_string(), IncrementalOptions::default(), None, None)
                .unwrap();
        let step = &script.steps[0];
        let (_, report) = resolve_edit(
            &state,
            &step.program.to_string(),
            IncrementalOptions::default(),
            None,
            None,
        )
        .unwrap();
        assert!(report.incremental);
        assert!(report.dirty_nodes > 0, "a real edit must dirty something");
        assert!(
            report.dirty_nodes < report.total_nodes,
            "edit to @{} dirtied all {} nodes — invalidation is not localized",
            step.name,
            report.total_nodes
        );
    });
}

/// Regression: an indirect call whose call site stays clean while the
/// callee is edited so its return set shrinks. The incremental re-solve
/// must drop the stale object from the call's result exactly as a cold
/// solve does.
#[test]
fn shrinking_return_of_indirect_callee_matches_cold() {
    const BASE: &str = r#"
global @ga
global @gb
global @fp
ginit @fp, @pick

func @pick(%t) {
entry:
  %a = alloc heap A
  %b = alloc heap B
  store %a, @ga
  store %b, @gb
  %s = alloc stack S
  store %a, %s
  store %b, %s
  %r = load %s
  ret %r
}

func @main() {
entry:
  %x = alloc heap X
  %f = load @fp
  %res = icall %f(%x)
  ret
}
"#;
    let opts = IncrementalOptions::default();
    let (state, _) = solve_program(BASE, opts, None, None).unwrap();
    assert!(state.has_warm_state());
    let edited = BASE.replace("  store %b, %s\n", "");
    let (_, rep) = resolve_edit(&state, &edited, opts, None, None).unwrap();
    let (_, crep) = solve_program(&edited, opts, None, None).unwrap();
    assert_eq!(
        rep.fingerprint, crep.fingerprint,
        "incremental diverged from cold solve (dirty {}/{})",
        rep.dirty_nodes, rep.total_nodes
    );
}
