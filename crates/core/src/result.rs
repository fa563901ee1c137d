//! Results and statistics shared by both flow-sensitive solvers.

use vsfs_adt::govern::{Completion, DegradeReason};
use vsfs_adt::{FlatReader, IndexVec, PointsToSet, PtsId, PtsStore, PtsStoreStats};
use vsfs_andersen::{AndersenResult, UnifyResult};
use vsfs_ir::{FuncId, InstId, ObjId, Program, ValueId};

/// The output of a flow-sensitive analysis run.
///
/// Points-to sets are hash-consed: the result carries the run's
/// [`PtsStore`] and one [`PtsId`] per value, and resolves ids back to
/// sets at the API boundary ([`FlowSensitiveResult::value_pts`]) so
/// external behaviour is unchanged.
#[derive(Debug, Clone)]
pub struct FlowSensitiveResult {
    /// The hash-consed store the ids below point into.
    pub(crate) store: PtsStore<ObjId>,
    /// Flat read-back cache for the sets the API lends out.
    pub(crate) flat: FlatReader<ObjId>,
    /// Final (global) points-to set id of every top-level value.
    pub(crate) pt: IndexVec<ValueId, PtsId>,
    /// Call-graph edges resolved flow-sensitively, sorted.
    pub callgraph_edges: Vec<(InstId, FuncId)>,
    /// Counters for the run.
    pub stats: SolveStats,
}

impl FlowSensitiveResult {
    /// Packages a solver's final state.
    pub(crate) fn new(
        store: PtsStore<ObjId>,
        pt: IndexVec<ValueId, PtsId>,
        callgraph_edges: Vec<(InstId, FuncId)>,
        stats: SolveStats,
    ) -> FlowSensitiveResult {
        let flat = FlatReader::new(&store, pt.iter().copied());
        FlowSensitiveResult { store, flat, pt, callgraph_edges, stats }
    }

    /// The points-to set of `v`.
    pub fn value_pts(&self, v: ValueId) -> &PointsToSet<ObjId> {
        self.flat.get(self.pt[v])
    }

    /// The epoch of the run's hash-consed store: 0 for a from-scratch
    /// solve, incremented by each incremental re-solve that carried
    /// state forward (`crate::incremental`).
    pub fn store_epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// Repackages the auxiliary Andersen analysis as a
    /// `FlowSensitiveResult` — the *sound fallback* when the
    /// flow-sensitive stage is cut short by a budget or a worker fault.
    ///
    /// Andersen is flow-insensitive, so it over-approximates every
    /// flow-sensitive answer: for each value, the set here is a superset
    /// of what a completed VSFS/SFS run would report, and the call graph
    /// contains every flow-sensitively resolvable edge. Stats are zeroed
    /// (no flow-sensitive solve happened).
    pub fn from_andersen(prog: &Program, aux: &AndersenResult) -> FlowSensitiveResult {
        let mut store = PtsStore::new();
        let pt: IndexVec<ValueId, PtsId> =
            prog.values.indices().map(|v| store.intern(aux.value_pts(v))).collect();
        let mut callgraph_edges: Vec<(InstId, FuncId)> = aux.callgraph.edges().collect();
        callgraph_edges.sort_unstable();
        let stats = SolveStats { store: store.stats(), ..SolveStats::default() };
        FlowSensitiveResult::new(store, pt, callgraph_edges, stats)
    }

    /// Repackages a unification analysis as a `FlowSensitiveResult` —
    /// the *second* sound fallback rung, used when even the Andersen
    /// stage was cut short by its budget.
    ///
    /// Unification over-approximates Andersen (its result is the least
    /// inclusion solution of the *collapsed* constraint graph), which
    /// in turn over-approximates every flow-sensitive answer — so the
    /// sets and call graph here remain supersets of the complete
    /// flow-sensitive result, just coarser than the first rung's.
    pub fn from_unify(prog: &Program, unify: &UnifyResult) -> FlowSensitiveResult {
        let mut store = PtsStore::new();
        let pt: IndexVec<ValueId, PtsId> =
            prog.values.indices().map(|v| store.intern(unify.value_pts(v))).collect();
        let mut callgraph_edges: Vec<(InstId, FuncId)> = unify.callgraph.edges().collect();
        callgraph_edges.sort_unstable();
        let stats = SolveStats {
            store: store.stats(),
            solve_seconds: unify.stats.seconds,
            ..SolveStats::default()
        };
        FlowSensitiveResult::new(store, pt, callgraph_edges, stats)
    }
}

/// The outcome of a resource-governed analysis run: the points-to result
/// actually delivered, plus how it was obtained.
///
/// When `completion` is `Degraded`, `result` holds a sound fallback
/// and `mode` names the rung of the degradation ladder that produced
/// it: `"flow-insensitive-fallback"` when the flow-sensitive stage
/// tripped and the Andersen result stands in
/// ([`FlowSensitiveResult::from_andersen`]), or
/// `"unification-fallback"` when even the Andersen stage tripped and a
/// unification run stands in ([`FlowSensitiveResult::from_unify`]).
/// Either way the result is still *sound* (a superset of the complete
/// flow-sensitive answer), just less precise.
#[derive(Debug, Clone)]
pub struct GovernedAnalysis {
    /// The delivered points-to result (flow-sensitive, or a sound
    /// fallback on degradation).
    pub result: FlowSensitiveResult,
    /// `Complete`, or `Degraded(reason)` describing the trip.
    pub completion: Completion,
    /// `"flow-sensitive"`, `"flow-insensitive-fallback"`, or
    /// `"unification-fallback"`.
    pub mode: &'static str,
    /// The stage that tripped, when degraded: `"andersen"`,
    /// `"versioning"`, or `"solve"`.
    pub degraded_stage: Option<&'static str>,
}

impl GovernedAnalysis {
    /// A completed flow-sensitive run.
    pub fn complete(result: FlowSensitiveResult) -> GovernedAnalysis {
        GovernedAnalysis {
            result,
            completion: Completion::Complete,
            mode: "flow-sensitive",
            degraded_stage: None,
        }
    }

    /// A degraded run: deliver the sound Andersen fallback, tagged with
    /// the stage that tripped and why.
    pub fn fallback(
        prog: &Program,
        aux: &AndersenResult,
        stage: &'static str,
        reason: DegradeReason,
    ) -> GovernedAnalysis {
        GovernedAnalysis {
            result: FlowSensitiveResult::from_andersen(prog, aux),
            completion: Completion::Degraded(reason),
            mode: "flow-insensitive-fallback",
            degraded_stage: Some(stage),
        }
    }

    /// The second rung of the degradation ladder: the Andersen stage
    /// itself tripped, so deliver a unification result instead of a
    /// hard error. Coarser than the first rung but still sound.
    pub fn unify_fallback(
        prog: &Program,
        unify: &UnifyResult,
        stage: &'static str,
        reason: DegradeReason,
    ) -> GovernedAnalysis {
        GovernedAnalysis {
            result: FlowSensitiveResult::from_unify(prog, unify),
            completion: Completion::Degraded(reason),
            mode: "unification-fallback",
            degraded_stage: Some(stage),
        }
    }

    /// Returns `true` if the flow-sensitive analysis ran to completion.
    pub fn is_complete(&self) -> bool {
        self.completion.is_complete()
    }
}

/// Counters describing a flow-sensitive solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Node worklist pops.
    pub node_pops: usize,
    /// Version-slot worklist pops (VSFS only; 0 for SFS).
    pub slot_pops: usize,
    /// Worklist enqueues suppressed by the in-queue guard across all
    /// worklists of the run.
    pub pushes_suppressed: usize,
    /// Points-to set union operations performed for address-taken objects
    /// (edge or version propagations plus store transfers).
    pub object_propagations: usize,
    /// Edge/slot visits where difference propagation proved nothing new
    /// had to flow (frontier already current, empty delta, or the target
    /// already covered the delta) and the union was skipped.
    pub unions_avoided: usize,
    /// Heap bytes of the deltas actually shipped along indirect edges and
    /// reliance edges (what difference propagation transferred).
    pub delta_bytes: usize,
    /// Heap bytes the same propagations would have shipped without
    /// frontiers (the full source set each time).
    pub full_bytes: usize,
    /// Distinct points-to sets stored for address-taken objects at the end
    /// of the run (SFS: `IN`/`OUT` entries; VSFS: `(object, version)`
    /// slots). Logical slots — dedup across slots shows up in
    /// [`SolveStats::store`], not here.
    pub stored_object_sets: usize,
    /// Total elements across those sets.
    pub stored_object_elems: usize,
    /// Approximate heap bytes those sets would occupy if each slot owned
    /// its set (the pre-dedup logical footprint).
    pub stored_object_bytes: usize,
    /// Strong updates applied.
    pub strong_updates: usize,
    /// Indirect `(call, callee)` pairs activated during solving.
    pub calls_activated: usize,
    /// Versioning-only: number of non-identity prelabels created.
    pub prelabels: usize,
    /// Versioning-only: distinct `(object, version)` slots.
    pub versions: usize,
    /// Versioning-only: version reliance (propagation) constraints after
    /// deduplication.
    pub reliance_edges: usize,
    /// Always 0: the solvers skip no node transfers. Kept because the
    /// repository benchmark records it.
    pub scc_solves_skipped: usize,
    /// Versioning pre-analysis wall-clock time in seconds (0 for SFS).
    pub versioning_seconds: f64,
    /// Main-phase wall-clock time in seconds.
    pub solve_seconds: f64,
    /// Hash-consed store counters: unique canonical sets, their physical
    /// bytes, and memo hit rates for the run's set algebra.
    pub store: PtsStoreStats,
}

/// Checks the paper's precision claim: both analyses computed identical
/// points-to sets for every top-level variable and identical call graphs.
pub fn same_precision(prog: &Program, a: &FlowSensitiveResult, b: &FlowSensitiveResult) -> bool {
    if a.callgraph_edges != b.callgraph_edges {
        return false;
    }
    prog.values.indices().all(|v| a.value_pts(v) == b.value_pts(v))
}

/// Like [`same_precision`] but reports the first difference, for test
/// diagnostics.
pub fn precision_diff(
    prog: &Program,
    a: &FlowSensitiveResult,
    b: &FlowSensitiveResult,
) -> Option<String> {
    if a.callgraph_edges != b.callgraph_edges {
        return Some(format!(
            "call graphs differ: {:?} vs {:?}",
            a.callgraph_edges, b.callgraph_edges
        ));
    }
    for v in prog.values.indices() {
        if a.value_pts(v) != b.value_pts(v) {
            let names = |s: &PointsToSet<ObjId>| {
                s.iter().map(|o| prog.objects[o].name.clone()).collect::<Vec<_>>()
            };
            return Some(format!(
                "pt(%{}) differs: {:?} vs {:?}",
                prog.values[v].name,
                names(a.value_pts(v)),
                names(b.value_pts(v))
            ));
        }
    }
    None
}
