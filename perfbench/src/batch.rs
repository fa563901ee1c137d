//! The batch workloads: cold analysis of generated source text, then a
//! batch of queries on the solved result.
//!
//! Each analysis goes from text to a solved result exactly as a batch
//! user's run does: parse and verify, Andersen, then either the staged
//! versioned pipeline (memory SSA, SVFG, versioning, VSFS fixpoint) or
//! the CFG-free solver straight off the Andersen result. Output checks
//! run outside the timed region: every analysis's result fingerprint
//! must equal that of a reference solve by the *other* solver, its
//! points-to sets must lie within Andersen's pointwise, and every query
//! answer must equal the reference's answer to the same query.

use crate::stats::{median, percentile, samples_needed};
use crate::trace::Tracer;
use crate::{derive_seed, seeded_program, shape_config, Report, MIB};
use std::time::{Duration, Instant};
use vsfs_adt::mem::MemScope;
use vsfs_andersen::AndersenResult;
use vsfs_core::queries::AliasQueries;
use vsfs_core::{result_fingerprint, FlowSensitiveResult, VersionTables};
use vsfs_ir::{Program, ValueId};
use vsfs_mssa::MemorySsa;
use vsfs_svfg::stable;
use vsfs_svfg::{StableKeys, Svfg};
use vsfs_testkit::Rng;

/// How often set-up runs; `setup_s` is the median.
const SETUPS: usize = 15;

/// Seed purpose tag of the query mix.
const QUERY_MIX: u64 = 2;

/// The solver a batch workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSolver {
    /// Memory SSA, SVFG, versioning, VSFS fixpoint.
    Vsfs,
    /// The CFG-free solver over the Andersen result.
    Cfgfree,
}

impl BatchSolver {
    fn name(self) -> &'static str {
        match self {
            BatchSolver::Vsfs => "vsfs",
            BatchSolver::Cfgfree => "cfgfree",
        }
    }

    /// The solver whose result is the reference for this one.
    fn reference(self) -> BatchSolver {
        match self {
            BatchSolver::Vsfs => BatchSolver::Cfgfree,
            BatchSolver::Cfgfree => BatchSolver::Vsfs,
        }
    }
}

/// A solved program and the pieces the checks and counters read.
struct Solved {
    prog: Program,
    aux: AndersenResult,
    result: FlowSensitiveResult,
    /// The staged pipeline, kept so it is dropped outside the timing.
    staged: Option<(MemorySsa, Svfg)>,
    versioning: Option<vsfs_core::VersioningStats>,
}

/// Analyses `text` from scratch with `solver`, each layer call under a
/// span of `tr`.
///
/// # Errors
///
/// Returns the first parse or verification diagnostic.
fn analyze(text: &str, solver: BatchSolver, tr: &mut Tracer) -> Result<Solved, String> {
    let prog = tr.call("parse_program", || {
        let prog = vsfs_ir::parse_program(text).map_err(|e| e.to_string())?;
        vsfs_ir::verify::verify(&prog).map_err(|e| e.to_string())?;
        Ok::<_, String>(prog)
    })?;
    let aux = tr.call("analyze", || vsfs_andersen::analyze(&prog));
    Ok(match solver {
        BatchSolver::Vsfs => {
            let mssa = tr.call("MemorySsa::build", || MemorySsa::build(&prog, &aux));
            let svfg = tr.call("Svfg::build", || Svfg::build(&prog, &aux, &mssa));
            let tables =
                tr.call("VersionTables::build", || VersionTables::build(&prog, &mssa, &svfg));
            let versioning = Some(tables.stats);
            let result = tr.call("run_vsfs_with_tables", || {
                vsfs_core::run_vsfs_with_tables(&prog, &aux, &mssa, &svfg, tables)
            });
            Solved { prog, aux, result, staged: Some((mssa, svfg)), versioning }
        }
        BatchSolver::Cfgfree => {
            let result = tr.call("run_cfgfree", || vsfs_core::run_cfgfree(&prog, &aux));
            Solved { prog, aux, result, staged: None, versioning: None }
        }
    })
}

/// Store-level union calls: algebraic shortcuts, memo hits and misses.
fn unions_attempted(result: &FlowSensitiveResult) -> u64 {
    let s = &result.stats.store;
    (s.union_shortcuts + s.union_hits + s.union_misses) as u64
}

/// Share of edge or slot visits whose union was skipped outright.
fn unions_avoided_ratio(result: &FlowSensitiveResult) -> f64 {
    let s = &result.stats;
    let total = s.object_propagations + s.unions_avoided;
    if total == 0 {
        0.0
    } else {
        s.unions_avoided as f64 / total as f64
    }
}

/// The deterministic work counters of one analysis.
fn record_counters(report: &mut Report, solver: BatchSolver, solved: &Solved) {
    let s = &solved.result.stats;
    let c = &mut report.counters;
    c.insert("andersen.pops", solved.aux.stats.pops as u64);
    c.insert("ptstore.unique_sets", s.store.unique_sets as u64);
    match solver {
        BatchSolver::Vsfs => {
            let v = solved.versioning.expect("vsfs analyses version");
            let (_, svfg) = solved.staged.as_ref().expect("vsfs analyses are staged");
            c.insert("svfg.nodes", svfg.node_count() as u64);
            c.insert("svfg.indirect_edges", svfg.indirect_edge_count() as u64);
            c.insert("versioning.prelabels", v.prelabels as u64);
            c.insert("versioning.versions", v.versions as u64);
            c.insert("versioning.reliance_edges", v.reliance_edges as u64);
            c.insert("vsfs.node_pops", s.node_pops as u64);
            c.insert("vsfs.slot_pops", s.slot_pops as u64);
            c.insert("vsfs.pushes_suppressed", s.pushes_suppressed as u64);
            c.insert("vsfs.unions_attempted", unions_attempted(&solved.result));
            c.insert("vsfs.scc_solves_skipped", s.scc_solves_skipped as u64);
        }
        BatchSolver::Cfgfree => {
            c.insert("cfgfree.node_pops", s.node_pops as u64);
            c.insert("cfgfree.unions_attempted", unions_attempted(&solved.result));
            c.insert("cfgfree.stored_object_sets", s.stored_object_sets as u64);
        }
    }
}

/// Values asked about in one query.
const QUERY_BATCH: usize = 16;

/// One query of the mix: for each value `p` of a batch, what does `p`
/// point to, and may it alias a random value `q`? Single calls are too
/// short to time steadily, and their latencies split into two clusters
/// (empty or small points-to sets against sets of thousands of
/// objects) with the median falling between them; a batch's latency is
/// one cluster.
type Query = Vec<(ValueId, ValueId)>;

/// Every value once, each paired with a random value, in a seeded order
/// and cut into batches. Covering every value makes the latency
/// distribution the program's own rather than a sample's.
fn query_mix(prog: &Program, seed: u64) -> Vec<Query> {
    let mut rng = Rng::seed_from_u64(derive_seed(seed, QUERY_MIX));
    let n = prog.values.len();
    let mut order: Vec<ValueId> = (0..n).map(|i| ValueId::new(i as u32)).collect();
    for i in (1..n).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let pairs: Vec<(ValueId, ValueId)> =
        order.into_iter().map(|v| (v, ValueId::new((rng.next_u64() % n as u64) as u32))).collect();
    pairs.chunks(QUERY_BATCH).map(<[_]>::to_vec).collect()
}

/// Answers `batch` as a user sees it: per pair, the sorted pointee names of
/// `p`, then whether `p` and `q` may alias.
fn answer(batch: &Query, queries: &AliasQueries, tr: &mut Tracer) -> Vec<String> {
    let mut out = Vec::new();
    for &(p, q) in batch {
        out.extend(tr.call("AliasQueries::pointee_names", || {
            let mut names: Vec<String> =
                queries.pointee_names(p).into_iter().map(str::to_string).collect();
            names.sort_unstable();
            names
        }));
        out.push(tr.call("AliasQueries::may_alias", || queries.may_alias(p, q)).to_string());
    }
    out
}

fn hash_answer(answer: &[String]) -> u64 {
    answer.iter().fold(stable::fnv1a(b"answer"), |h, s| stable::mix(h, stable::fnv1a(s.as_bytes())))
}

fn fingerprint(solved: &Solved) -> u64 {
    result_fingerprint(&solved.prog, &StableKeys::build_program(&solved.prog), &solved.result)
}

/// Values whose flow-sensitive points-to set is not within Andersen's.
fn outside_andersen(solved: &Solved) -> usize {
    solved
        .prog
        .values
        .iter_enumerated()
        .filter(|&(v, _)| !solved.aux.value_pts(v).is_superset(solved.result.value_pts(v)))
        .count()
}

/// Runs one batch workload on suite shape `shape` for at least
/// `seconds` of timed analyses, and enough of them for a query p99.
pub fn run(shape: &str, solver: BatchSolver, seed: u64, seconds: f64, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    let config = shape_config(shape);

    let mut setup = Vec::with_capacity(SETUPS);
    let mut text = String::new();
    for i in 0..SETUPS {
        let t = Instant::now();
        let generated = seeded_program(&config, seed);
        setup.push(t.elapsed().as_secs_f64());
        if i > 0 && generated != text {
            report.attempt(false, || "generation is not deterministic".into());
        }
        text = generated;
    }

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut analyze_s = Vec::new();
    let mut peaks = Vec::new();
    let mut query_s = Vec::new();
    // Per analysis: result fingerprint, values outside Andersen's sets,
    // and a hash of each answer to the query mix.
    let mut checks: Vec<(u64, usize)> = Vec::new();
    let mut answers: Vec<Vec<u64>> = Vec::new();
    let mut mix = Vec::new();
    // At least one analysis, and enough for a query p99.
    let min_queries = samples_needed(0.99);
    while analyze_s.is_empty() || start.elapsed() < budget || query_s.len() < min_queries {
        let scope = MemScope::start();
        let op = tr.open("analysis");
        let t = Instant::now();
        let solved = analyze(&text, solver, tr);
        let elapsed = t.elapsed().as_secs_f64();
        tr.close(op);
        let peak = scope.peak_bytes();
        let solved = match solved {
            Ok(s) => s,
            Err(e) => {
                report.attempt(false, || format!("{} analysis failed: {e}", solver.name()));
                break;
            }
        };
        analyze_s.push(elapsed);
        peaks.push(peak as f64);
        if mix.is_empty() {
            mix = query_mix(&solved.prog, seed);
            record_counters(&mut report, solver, &solved);
            if tr.enabled() {
                per_layer_from_result(&mut report, solver, &solved);
            }
        }

        let queries = AliasQueries::new(&solved.prog, &solved.result);
        let mut got = Vec::with_capacity(mix.len());
        for q in &mix {
            let op = tr.open("query");
            let t = Instant::now();
            let a = answer(q, &queries, tr);
            query_s.push(t.elapsed().as_secs_f64());
            tr.close(op);
            got.push(hash_answer(&a));
        }
        answers.push(got);
        checks.push((fingerprint(&solved), outside_andersen(&solved)));
    }

    // Output checks, outside the timed region, against the other solver
    // on the same text (untraced).
    match analyze(&text, solver.reference(), &mut Tracer::new(false)) {
        Ok(reference) => {
            let expect = fingerprint(&reference);
            let queries = AliasQueries::new(&reference.prog, &reference.result);
            let disabled = &mut Tracer::new(false);
            let expected: Vec<u64> =
                mix.iter().map(|q| hash_answer(&answer(q, &queries, disabled))).collect();
            for &(fp, outside) in &checks {
                report.attempt(fp == expect && outside == 0, || {
                    format!(
                        "{} fingerprint {fp:016x} (reference {} {expect:016x}), \
                         {outside} values outside their Andersen sets",
                        solver.name(),
                        solver.reference().name()
                    )
                });
            }
            for got in &answers {
                for (i, (a, e)) in got.iter().zip(&expected).enumerate() {
                    report.attempt(a == e, || format!("query batch {i} ({:?}) differs", mix[i]));
                }
            }
        }
        Err(e) => report.attempt(false, || format!("reference analysis failed: {e}")),
    }

    let us: Vec<f64> = query_s.iter().map(|s| s * 1e6).collect();
    if tr.enabled() {
        per_layer_from_spans(&mut report, solver, tr);
        report.layer_counters();
        report.metric("trace.analyze_s", median(&analyze_s).unwrap_or(0.0), "s", analyze_s.len());
        report.fill_per_layer();
    } else {
        report.metric("setup_s", median(&setup).unwrap_or(0.0), "s", setup.len());
        report.metric("analyze_s", median(&analyze_s).unwrap_or(0.0), "s", analyze_s.len());
        report.metric("peak_heap_mib", median(&peaks).unwrap_or(0.0) / MIB, "MiB", peaks.len());
        report.extra("query_p50_us", median(&us).unwrap_or(0.0), "us", us.len());
        match percentile(&us, 0.99) {
            Some(p99) => report.extra("query_p99_us", p99, "us", us.len()),
            None => report
                .attempt(false, || format!("{} queries; the p99 needs {min_queries}", us.len())),
        }
        // A batch user's operation is the analysis (the queries are
        // timed apart): analyses per second at the median.
        let per_s = median(&analyze_s).map_or(0.0, |m| 1.0 / m);
        report.metric("ops_per_s", per_s, "1/s", analyze_s.len());
    }
    report
}

/// The ratio metrics of the first traced analysis's result.
fn per_layer_from_result(report: &mut Report, solver: BatchSolver, solved: &Solved) {
    let s = &solved.result.stats;
    let avoided = unions_avoided_ratio(&solved.result);
    match solver {
        BatchSolver::Vsfs => {
            report.metric("vsfs.unions_avoided_ratio", avoided, "ratio", 1);
            let saved = if s.full_bytes == 0 {
                0.0
            } else {
                1.0 - s.delta_bytes as f64 / s.full_bytes as f64
            };
            report.metric("vsfs.delta_saved_ratio", saved, "ratio", 1);
        }
        BatchSolver::Cfgfree => report.metric("cfgfree.unions_avoided_ratio", avoided, "ratio", 1),
    }
    ptstore_metrics(report, &s.store);
}

/// The `ptstore.*` metrics of one solve's store.
pub(crate) fn ptstore_metrics(report: &mut Report, store: &vsfs_adt::PtsStoreStats) {
    report.metric("ptstore.unique_sets", store.unique_sets as f64, "count", 1);
    report.metric("ptstore.chunk_bytes", store.chunk_bytes as f64, "bytes", 1);
    report.metric("ptstore.union_hit_rate", store.union_hit_rate(), "ratio", 1);
    report.metric("ptstore.flat_saving_ratio", store.payload_reduction(), "ratio", 1);
}

/// Busy time (median over analyses) and peak heap of each traced layer.
fn per_layer_from_spans(report: &mut Report, solver: BatchSolver, tr: &Tracer) {
    tr.layer(report, "ir.parse_s", None, "parse_program");
    tr.layer(report, "andersen.busy_s", Some("andersen.peak_mib"), "analyze");
    match solver {
        BatchSolver::Vsfs => {
            tr.layer(report, "mssa.busy_s", Some("mssa.peak_mib"), "MemorySsa::build");
            tr.layer(report, "svfg.busy_s", Some("svfg.peak_mib"), "Svfg::build");
            let versioning = "VersionTables::build";
            tr.layer(report, "versioning.busy_s", Some("versioning.peak_mib"), versioning);
            tr.layer(report, "vsfs.busy_s", Some("vsfs.peak_mib"), "run_vsfs_with_tables");
        }
        BatchSolver::Cfgfree => {
            tr.layer(report, "cfgfree.busy_s", Some("cfgfree.peak_mib"), "run_cfgfree")
        }
    }
    tr.query_layers(report);
}
