//! The labelled-corpus gate and the finding-set identity guarantees.
//!
//! * Every corpus program's flow-sensitive diagnostics match its
//!   `.expected` sidecar **verbatim, order included**; clean programs
//!   (comment-only sidecars) produce zero findings.
//! * The finding set is a pure function of the points-to result, so SFS
//!   and VSFS — and VSFS under any `--jobs` — yield *bit-identical*
//!   findings (paths included).
//! * At least one corpus program demonstrates a false positive removed
//!   by flow-sensitivity (the Table III story).

use vsfs_checkers::{
    load_corpus, render_findings, run_checkers, AndersenView, CheckerCase, FlowView,
};
use vsfs_core::{solve, IncrementalOptions, SolverKind};
use vsfs_ir::Program;

fn corpus() -> Vec<CheckerCase> {
    let cases =
        load_corpus(&vsfs_checkers::corpus::default_corpus_dir()).expect("corpus directory loads");
    assert!(cases.len() >= 10, "corpus must stay at >= 10 labelled programs");
    cases
}

struct Pipeline {
    prog: Program,
    aux: vsfs_andersen::AndersenResult,
    mssa: vsfs_mssa::MemorySsa,
    svfg: vsfs_svfg::Svfg,
}

fn pipeline(source: &str) -> Pipeline {
    let prog = vsfs_ir::parse_program(source).expect("corpus program parses");
    vsfs_ir::verify::verify(&prog).expect("corpus program verifies");
    let aux = vsfs_andersen::analyze(&prog);
    let mssa = vsfs_mssa::MemorySsa::build(&prog, &aux);
    let svfg = vsfs_svfg::Svfg::build(&prog, &aux, &mssa);
    Pipeline { prog, aux, mssa, svfg }
}

#[test]
fn expected_findings_exact_match() {
    for case in corpus() {
        let p = pipeline(&case.source);
        let fs = vsfs_core::run_vsfs(&p.prog, &p.aux, &p.mssa, &p.svfg);
        let findings = run_checkers(&p.prog, &p.svfg, &FlowView(&fs));
        let lines = render_findings(&p.prog, &findings);
        assert_eq!(
            lines, case.expected,
            "{}: flow-sensitive diagnostics diverge from {}.expected",
            case.name, case.name
        );
        if case.expected.is_empty() {
            assert!(findings.is_empty(), "{}: clean program must stay silent", case.name);
        }
    }
}

#[test]
fn findings_identical_across_solvers_and_jobs() {
    for case in corpus() {
        let p = pipeline(&case.source);
        let sfs = vsfs_core::run_sfs(&p.prog, &p.aux, &p.mssa, &p.svfg);
        let reference = run_checkers(&p.prog, &p.svfg, &FlowView(&sfs));
        for jobs in [1usize, 2, 8] {
            let opts = IncrementalOptions { solver: SolverKind::Vsfs, jobs };
            let vsfs = solve(&p.prog, &p.aux, Some((&p.mssa, &p.svfg)), &opts, None).result;
            let findings = run_checkers(&p.prog, &p.svfg, &FlowView(&vsfs));
            assert_eq!(
                findings, reference,
                "{}: VSFS --jobs {jobs} findings differ from SFS (paths included)",
                case.name
            );
        }
    }
}

#[test]
fn corpus_demonstrates_removed_false_positives() {
    let mut total_removed = 0i64;
    let mut programs_with_removal = 0;
    for case in corpus() {
        let p = pipeline(&case.source);
        let fs = vsfs_core::run_vsfs(&p.prog, &p.aux, &p.mssa, &p.svfg);
        let ander = run_checkers(&p.prog, &p.svfg, &AndersenView(&p.aux));
        let flow = run_checkers(&p.prog, &p.svfg, &FlowView(&fs));
        if ander.len() > flow.len() {
            programs_with_removal += 1;
        }
        total_removed += ander.len() as i64 - flow.len() as i64;
    }
    assert!(
        programs_with_removal >= 1,
        "at least one corpus program must show an FP removed by flow-sensitivity"
    );
    assert!(total_removed >= 1);
}

#[test]
fn json_report_is_deterministic_and_wellformed() {
    for case in corpus() {
        let p = pipeline(&case.source);
        let fs = vsfs_core::run_vsfs(&p.prog, &p.aux, &p.mssa, &p.svfg);
        let ander = run_checkers(&p.prog, &p.svfg, &AndersenView(&p.aux));
        let flow = run_checkers(&p.prog, &p.svfg, &FlowView(&fs));
        let a = vsfs_checkers::CheckReport::new(&p.prog, ander.clone(), flow.clone())
            .to_json(&case.name);
        let b = vsfs_checkers::CheckReport::new(&p.prog, ander, flow).to_json(&case.name);
        assert_eq!(a, b);
        assert!(a.starts_with(&format!("{{\"program\":\"{}\"", case.name)));
        assert!(a.contains("\"fp_removed\""));
        assert_eq!(a.matches("\"checker\":").count(), 4);
    }
}
