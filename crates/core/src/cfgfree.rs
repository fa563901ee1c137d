//! CFG-free flow-sensitive analysis by constraint ordering ("Flow
//! Sensitivity without Control Flow Graph", see PAPERS.md).
//!
//! Where SFS/VSFS propagate object state along an explicitly built
//! sparse value-flow graph (memory SSA → SVFG → indirect edges), this
//! solver never materialises either stage. It recovers the same
//! flow-sensitive answers directly from the Andersen-annotated
//! constraint graph in three steps:
//!
//! 1. **Events.** Each instruction's µ (may-use) and χ (may-define)
//!    object annotations (`vsfs_mssa::annot`, which needs only the
//!    auxiliary result — no SSA renaming) become *use* and *def*
//!    events: stores and `FUNENTRY` define, loads and `FUNEXIT` use,
//!    calls do both (callee-bound µ before the call-return χ). `FREE`
//!    events are transparent (they neither generate nor kill) and are
//!    skipped outright.
//! 2. **Ordering.** A per-`(function, object)` reaching-definitions
//!    pass over the basic blocks — in which *only strong stores kill*
//!    — yields the set of definitions each use may observe. This is
//!    the "constraint ordering": all the flow sensitivity the SVFG's
//!    def-use chains encode, without ever running SSA construction.
//!    Uses that observe the same set form one *reach class* (the
//!    object-versioning idea: same reaching definitions, same
//!    `pt(o)`), so the static relation is `def → class`, not
//!    `def → use`: a run of M loads after K weak stores costs K edges
//!    and one accumulator, not K×M edges and M accumulators. Uses no
//!    definition reaches share one class that nothing feeds.
//! 3. **Solving.** A monotone fixpoint over one worklist of plain
//!    `InstId`s: def events evaluate their generated value (strong
//!    stores unconditionally, weak stores gated by the evolving
//!    points-to set of the address, call/entry events by merging over
//!    activated bindings) and ship growth into their classes'
//!    accumulators with the same per-edge frontier difference
//!    propagation the staged solvers use. A use reads its class's
//!    accumulator, which is the union over its reaching definitions.
//!
//! **Exactness.** Because weak definitions kill nothing, a definition
//! reaches a use here iff the corresponding SVFG def-use chain links
//! them transitively through weak χ relays, and strong stores block
//! both formulations identically. The strong/weak decision is the same
//! *static* rule (`singleton ∧ aux-pt(addr) = {o}`), call bindings use
//! the same µ/χ intersections, and top-level transfers are shared
//! semantics — so this solver computes the unique least fixpoint of
//! the same monotone system as SFS/VSFS and is query-identical to
//! them (enforced by `tests/equivalence.rs` and the CI solver gate).

use crate::result::{FlowSensitiveResult, SolveStats};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::time::Instant;
use vsfs_adt::govern::{Completion, Governor};
use vsfs_adt::{IndexVec, PointsToSet, PriorityWorklist, PtsId, PtsStore};
use vsfs_andersen::AndersenResult;
use vsfs_graph::{condensation_ranks, DiGraph};
use vsfs_ir::{Callee, Cfg, DefUse, FuncId, InstId, InstKind, ObjId, Program, ValueId};
use vsfs_mssa::annot::{annotate, Annotations};
use vsfs_mssa::ModRef;

const EMPTY: PtsId = PtsStore::<ObjId>::EMPTY;

/// The reach class of every use no definition reaches: no reach edge
/// feeds it, so its accumulator stays empty.
const UNREACHED: u32 = 0;

/// Runs the CFG-free solver to a fixpoint. Unlike
/// [`crate::run_sfs`]/[`crate::run_vsfs`] it takes no memory SSA and no
/// SVFG — the Andersen result is the whole pipeline.
pub fn run_cfgfree(prog: &Program, aux: &AndersenResult) -> FlowSensitiveResult {
    solve_impl(prog, aux, None).0
}

/// The CFG-free fixpoint, optionally under a [`Governor`] (one
/// cooperative checkpoint per worklist pop). Dispatched by
/// [`crate::solve`].
pub(crate) fn solve_impl(
    prog: &Program,
    aux: &AndersenResult,
    governor: Option<&Governor>,
) -> (FlowSensitiveResult, Completion) {
    let start = Instant::now();
    let mut solver = CfgFreeSolver::new(prog, aux);
    for i in prog.insts.indices() {
        solver.worklist.push(i);
    }
    let completion = solver.solve_governed(governor);
    let mut stats = solver.stats;
    stats.solve_seconds = start.elapsed().as_secs_f64();
    stats.pushes_suppressed = solver.worklist.stats().suppressed;
    stats.versions = solver.cval.len() - 1;
    stats.reliance_edges = solver.reach.iter().map(Vec::len).sum();
    let (sets, elems, bytes) = solver.storage_stats();
    stats.stored_object_sets = sets;
    stats.stored_object_elems = elems;
    stats.stored_object_bytes = bytes;
    stats.store = solver.store.stats();
    let mut callgraph_edges: Vec<(InstId, FuncId)> = solver.activated.iter().copied().collect();
    callgraph_edges.sort_unstable();
    (FlowSensitiveResult::new(solver.store, solver.pt, callgraph_edges, stats), completion)
}

/// What a def event generates for its object.
#[derive(Clone, Copy)]
enum DefKind {
    /// `FUNENTRY` χ: merge of caller-side call-µ values over activated
    /// bindings (weak — the function's "incoming" state).
    Entry,
    /// Store χ. `strong` is the static `[SU/WU]` decision; a strong
    /// store's reach edges already encode the kill (no upstream def
    /// reaches past it), so evaluation is gen-only either way.
    Store { addr: ValueId, val: ValueId, strong: bool },
    /// Call-return χ: merge of callee exit-µ values over activated
    /// bindings (weak — pre-call state passes through by reach).
    CallRet,
}

struct DefEvent {
    inst: InstId,
    obj: ObjId,
    kind: DefKind,
}

/// A µ event. What it feeds follows from its instruction: a load's µ
/// flows into `pt(dst)` when `pt(addr)` holds the object, a call's µ
/// into activated callees' entry χ, a `FUNEXIT` µ into activated
/// callers' return χ.
struct UseEvent {
    inst: InstId,
    obj: ObjId,
}

/// One event of a function in [`CfgFreeSolver::build_reach`]'s walk:
/// the object, the block's local index, and the def or use id (`strong`
/// marks a killing store).
#[derive(Clone, Copy)]
struct ReachEvent {
    obj: ObjId,
    block: u32,
    is_def: bool,
    id: u32,
    strong: bool,
}

struct CfgFreeSolver<'a> {
    prog: &'a Program,
    aux: &'a AndersenResult,
    defuse: DefUse,
    /// Hash-consed points-to store shared by every table of the run.
    store: PtsStore<ObjId>,
    /// Global points-to set per top-level value.
    pt: IndexVec<ValueId, PtsId>,
    singletons: PointsToSet<ObjId>,
    active_callees: HashMap<InstId, Vec<FuncId>>,
    active_callers: HashMap<FuncId, Vec<InstId>>,
    activated: HashSet<(InstId, FuncId)>,
    defs: Vec<DefEvent>,
    uses: Vec<UseEvent>,
    /// Def / use event ids of each instruction (each instruction's
    /// events are contiguous).
    defs_at: IndexVec<InstId, Range<u32>>,
    uses_at: IndexVec<InstId, Range<u32>>,
    /// The binding endpoints `activate` looks up: the `FUNENTRY` def and
    /// the `FUNEXIT` use of each `(inst, object)`.
    entry_defs: HashMap<(InstId, ObjId), u32>,
    exit_uses: HashMap<(InstId, ObjId), u32>,
    /// Reach class per use: uses of one `(function, object)` with the
    /// same reaching defs share a class ([`UNREACHED`] if none).
    use_class: Vec<u32>,
    /// Static reach edges per def: `(class, frontier)` — the set id last
    /// shipped along the edge, for difference propagation.
    reach: Vec<Vec<(u32, PtsId)>>,
    /// Current generated value per def.
    val: Vec<PtsId>,
    /// Accumulated value per class: the union over its reaching defs.
    cval: Vec<PtsId>,
    /// Dynamic producers of `Entry`/`CallRet` defs: the classes of the
    /// caller/callee µ events wired in by call activation.
    producers: Vec<Vec<u32>>,
    /// Instructions to re-run when a class's accumulated value grows:
    /// its loads, and the activated bindings of its call/exit µ events.
    consumers: Vec<Vec<InstId>>,
    worklist: PriorityWorklist<InstId>,
    stats: SolveStats,
}

impl<'a> CfgFreeSolver<'a> {
    fn new(prog: &'a Program, aux: &'a AndersenResult) -> Self {
        let modref = ModRef::compute(prog, aux);
        let annots = annotate(prog, aux, &modref);
        let singletons = vsfs_andersen::compute_singletons(prog, &aux.callgraph);
        let mut pt: IndexVec<ValueId, PtsId> = (0..prog.values.len()).map(|_| EMPTY).collect();
        let mut store = PtsStore::new();
        for &(g, obj) in &prog.globals {
            pt[g] = store.insert(pt[g], obj);
        }

        let mut solver = CfgFreeSolver {
            prog,
            aux,
            defuse: DefUse::compute(prog),
            store,
            pt,
            singletons,
            active_callees: HashMap::new(),
            active_callers: HashMap::new(),
            activated: HashSet::new(),
            defs: Vec::new(),
            uses: Vec::new(),
            defs_at: (0..prog.insts.len()).map(|_| 0..0).collect(),
            uses_at: (0..prog.insts.len()).map(|_| 0..0).collect(),
            entry_defs: HashMap::new(),
            exit_uses: HashMap::new(),
            use_class: Vec::new(),
            reach: Vec::new(),
            val: Vec::new(),
            cval: vec![EMPTY], // UNREACHED
            producers: Vec::new(),
            consumers: vec![Vec::new()],
            worklist: PriorityWorklist::new(Vec::new()),
            stats: SolveStats::default(),
        };
        solver.build_events(&annots);
        solver.build_reach();
        solver.worklist = PriorityWorklist::new(solver.inst_ranks());
        solver
    }

    /// Turns the µ/χ annotations into the event arena. Within an
    /// instruction, µ events precede χ events — at a call the callee
    /// consumes the pre-call state, then the return χ defines the
    /// post-call state.
    fn build_events(&mut self, annots: &Annotations) {
        for (_, func) in self.prog.functions.iter_enumerated() {
            for &b in &func.blocks {
                for &inst in &self.prog.blocks[b].insts {
                    let (d0, u0) = (self.defs.len() as u32, self.uses.len() as u32);
                    match &self.prog.insts[inst].kind {
                        InstKind::Load { .. } => {
                            for o in annots.mu_objs[inst].iter() {
                                self.add_use(inst, o);
                            }
                        }
                        InstKind::Store { addr, val } => {
                            for o in annots.chi_objs[inst].iter() {
                                let strong = self.is_strong_update(*addr, o);
                                self.add_def(
                                    inst,
                                    o,
                                    DefKind::Store { addr: *addr, val: *val, strong },
                                );
                            }
                        }
                        InstKind::Call { .. } => {
                            for o in annots.mu_objs[inst].iter() {
                                self.add_use(inst, o);
                            }
                            for o in annots.chi_objs[inst].iter() {
                                self.add_def(inst, o, DefKind::CallRet);
                            }
                        }
                        InstKind::FunEntry { .. } => {
                            for o in annots.chi_objs[inst].iter() {
                                let d = self.add_def(inst, o, DefKind::Entry);
                                self.entry_defs.insert((inst, o), d);
                            }
                        }
                        InstKind::FunExit { .. } => {
                            for o in annots.mu_objs[inst].iter() {
                                let u = self.add_use(inst, o);
                                self.exit_uses.insert((inst, o), u);
                            }
                        }
                        // FREE χ events are transparent (no gen, no
                        // kill): under reach-transitivity they drop out
                        // entirely. Everything else is top-level only.
                        _ => {}
                    }
                    self.defs_at[inst] = d0..self.defs.len() as u32;
                    self.uses_at[inst] = u0..self.uses.len() as u32;
                }
            }
        }
    }

    fn add_def(&mut self, inst: InstId, obj: ObjId, kind: DefKind) -> u32 {
        let id = self.defs.len() as u32;
        self.defs.push(DefEvent { inst, obj, kind });
        self.reach.push(Vec::new());
        self.val.push(EMPTY);
        self.producers.push(Vec::new());
        id
    }

    fn add_use(&mut self, inst: InstId, obj: ObjId) -> u32 {
        let id = self.uses.len() as u32;
        self.uses.push(UseEvent { inst, obj });
        self.use_class.push(UNREACHED);
        id
    }

    /// The static per-`(function, object)` reaching-definitions pass:
    /// only strong stores kill; every def at-or-after the last strong
    /// def in a block is generated. Assigns every use its reach class
    /// and produces the `def → class` reach edges.
    fn build_reach(&mut self) {
        let mut events: Vec<ReachEvent> = Vec::new();
        for (f, func) in self.prog.functions.iter_enumerated() {
            // The function's events in layout order; the stable sort
            // groups them by object and keeps that order in each group.
            events.clear();
            for (bi, &b) in func.blocks.iter().enumerate() {
                let block = bi as u32;
                for &inst in &self.prog.blocks[b].insts {
                    for u in self.uses_at[inst].clone() {
                        let obj = self.uses[u as usize].obj;
                        events.push(ReachEvent { obj, block, is_def: false, id: u, strong: false });
                    }
                    for d in self.defs_at[inst].clone() {
                        let DefEvent { obj, kind, .. } = self.defs[d as usize];
                        let strong = matches!(kind, DefKind::Store { strong: true, .. });
                        events.push(ReachEvent { obj, block, is_def: true, id: d, strong });
                    }
                }
            }
            if events.is_empty() {
                continue;
            }
            events.sort_by_key(|e| e.obj);
            let cfg = Cfg::build(self.prog, f);
            for group in events.chunk_by(|a, b| a.obj == b.obj) {
                self.reach_object(cfg.graph(), group);
            }
        }
    }

    /// Reaching definitions for one `(function, object)` over the
    /// function's local block graph `cfg`; `group` is the object's
    /// events in layout order. A def's local index is its position
    /// among the group's defs.
    fn reach_object(&mut self, cfg: &DiGraph<u32>, group: &[ReachEvent]) {
        let local_defs: Vec<u32> = group.iter().filter(|e| e.is_def).map(|e| e.id).collect();
        if local_defs.is_empty() {
            return; // every use of the object here stays UNREACHED
        }
        let nblocks = cfg.node_count();
        let words = local_defs.len().div_ceil(64);
        let row = |bi: usize| bi * words..(bi + 1) * words;

        // GEN per block + whether the block kills (strong def).
        let mut gen = vec![0u64; nblocks * words];
        let mut kills = vec![false; nblocks];
        for (l, e) in group.iter().filter(|e| e.is_def).enumerate() {
            let bi = e.block as usize;
            if e.strong {
                gen[row(bi)].fill(0);
                kills[bi] = true;
            }
            gen[bi * words + l / 64] |= 1u64 << (l % 64);
        }

        // IN/OUT fixpoint: IN[B] = ⋃ OUT[pred];
        // OUT[B] = GEN[B] ∪ (IN[B] unless B kills).
        let mut ins = vec![0u64; nblocks * words];
        let mut outs = vec![0u64; nblocks * words];
        let mut inb = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for (bi, &kill) in kills.iter().enumerate() {
                inb.fill(0);
                for &p in cfg.predecessors(bi as u32) {
                    for (w, &pw) in inb.iter_mut().zip(&outs[row(p as usize)]) {
                        *w |= pw;
                    }
                }
                let keep = if kill { 0 } else { u64::MAX };
                for (k, &iw) in inb.iter().enumerate() {
                    let i = bi * words + k;
                    let out = gen[i] | (iw & keep);
                    if iw != ins[i] || out != outs[i] {
                        ins[i] = iw;
                        outs[i] = out;
                        changed = true;
                    }
                }
            }
        }

        // Final pass: at each use, the reaching set is the running
        // in-block state started from IN[B]. Consecutive uses with no
        // def between them share `class` without a lookup.
        let mut classes: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut cur = vec![0u64; words];
        let mut block = None;
        let mut class = None;
        let mut l = 0;
        for e in group {
            if block != Some(e.block) {
                block = Some(e.block);
                cur.copy_from_slice(&ins[row(e.block as usize)]);
                class = None;
            }
            if e.is_def {
                if e.strong {
                    cur.fill(0);
                }
                cur[l / 64] |= 1u64 << (l % 64);
                l += 1;
                class = None;
                continue;
            }
            let c = *class.get_or_insert_with(|| self.intern(&mut classes, &cur, &local_defs));
            let inst = self.uses[e.id as usize].inst;
            self.use_class[e.id as usize] = c;
            // A load consumes its own accumulated value. Call/exit µ
            // consumers are the activated bindings' insts, wired in by
            // `activate`.
            if matches!(self.prog.insts[inst].kind, InstKind::Load { .. }) {
                self.consumers[c as usize].push(inst);
            }
        }
    }

    /// The class of the reaching set `cur` (bits index `local_defs`),
    /// created with its `def → class` edges on first sight.
    fn intern(
        &mut self,
        classes: &mut HashMap<Vec<u64>, u32>,
        cur: &[u64],
        local_defs: &[u32],
    ) -> u32 {
        if cur.iter().all(|&w| w == 0) {
            return UNREACHED;
        }
        if let Some(&c) = classes.get(cur) {
            return c;
        }
        let c = self.cval.len() as u32;
        self.cval.push(EMPTY);
        self.consumers.push(Vec::new());
        for (wi, &w) in cur.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let l = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.reach[local_defs[l] as usize].push((c, EMPTY));
            }
        }
        classes.insert(cur.to_vec(), c);
        c
    }

    /// Topological ranks over instructions, from the static dependence
    /// graph: SSA def-use edges, memory reach edges, parameter flow,
    /// and every *candidate* call binding from the auxiliary call
    /// graph (so edges activated mid-solve are already ranked —
    /// mirroring `schedule::svfg_ranks`). Memory reach runs through one
    /// node per class (def inst → class → use inst), which links the
    /// same instructions as a def → use edge per reaching pair.
    fn inst_ranks(&self) -> Vec<u32> {
        let n = self.prog.insts.len();
        let node = |i: InstId| i.index() as u32;
        let class_node = |c: u32| (n as u32) + c;
        let mut g: DiGraph<u32> = DiGraph::with_nodes(n + self.cval.len());
        for v in self.prog.values.indices() {
            if let Some(d) = DefUse::def_inst(self.prog, v) {
                for &u in self.defuse.uses(v) {
                    g.add_edge(node(d), node(u));
                }
            }
        }
        for (d, edges) in self.reach.iter().enumerate() {
            let di = node(self.defs[d].inst);
            for &(c, _) in edges {
                g.add_edge(di, class_node(c));
            }
        }
        for (u, &c) in self.use_class.iter().enumerate() {
            if c != UNREACHED {
                g.add_edge(class_node(c), node(self.uses[u].inst));
            }
        }
        for (_, func) in self.prog.functions.iter_enumerated() {
            for &p in &func.params {
                for &u in self.defuse.uses(p) {
                    g.add_edge(node(func.entry_inst), node(u));
                }
            }
        }
        for (call, inst) in self.prog.insts.iter_enumerated() {
            if !matches!(inst.kind, InstKind::Call { .. }) {
                continue;
            }
            for &f in self.aux.callgraph.callees(call) {
                let func = &self.prog.functions[f];
                g.add_edge(node(call), node(func.entry_inst));
                g.add_edge(node(func.exit_inst), node(call));
            }
        }
        let mut ranks = condensation_ranks(&g);
        // Keep the instructions' ranks, renumbered densely so the
        // worklist gets no bucket for a rank only a class held.
        ranks.truncate(n);
        let mut dense = ranks.clone();
        dense.sort_unstable();
        dense.dedup();
        for r in &mut ranks {
            *r = dense.binary_search(r).expect("rank is in its own table") as u32;
        }
        ranks
    }

    fn solve_governed(&mut self, governor: Option<&Governor>) -> Completion {
        while let Some(inst) = self.worklist.pop() {
            if let Some(g) = governor {
                if let Err(reason) = g.check(1) {
                    return Completion::Degraded(reason);
                }
            }
            self.stats.node_pops += 1;
            self.process(inst);
        }
        Completion::Complete
    }

    fn process(&mut self, inst: InstId) {
        self.transfer_top(inst);
        // µ phase: a load pulls its accumulated values, gated by the
        // evolving pt(addr) — exactly SFS's `[LOAD]` dynamic gate.
        if let InstKind::Load { addr, dst } = self.prog.insts[inst].kind {
            for u in self.uses_at[inst].clone() {
                if self.store.contains(self.pt[addr], self.uses[u as usize].obj) {
                    let v = self.cval[self.use_class[u as usize] as usize];
                    self.union_pt(dst, v);
                }
            }
        }
        // χ phase: re-evaluate generated values, ship growth.
        for d in self.defs_at[inst].clone() {
            let new = self.eval_def(d);
            if new != self.val[d as usize] {
                self.val[d as usize] = new;
                self.ship(d);
            }
        }
    }

    /// The value def `d` currently generates (monotone in the solver
    /// state: pt sets and class accumulators only grow, gates only open).
    fn eval_def(&mut self, d: u32) -> PtsId {
        self.stats.object_propagations += 1;
        let obj = self.defs[d as usize].obj;
        match self.defs[d as usize].kind {
            DefKind::Store { addr, val, strong } => {
                if strong {
                    self.stats.strong_updates += 1;
                    self.pt[val]
                } else if self.store.contains(self.pt[addr], obj) {
                    self.pt[val]
                } else {
                    EMPTY
                }
            }
            DefKind::Entry | DefKind::CallRet => {
                let mut v = self.val[d as usize];
                for k in 0..self.producers[d as usize].len() {
                    let c = self.producers[d as usize][k];
                    v = self.store.union(v, self.cval[c as usize]);
                }
                v
            }
        }
    }

    /// Ships def `d`'s value past each reach edge's frontier into the
    /// target class's accumulator; on growth, re-queues the class's
    /// consumers. Differential and exact, as in `SfsSolver::ship_delta`.
    fn ship(&mut self, d: u32) {
        let v = self.val[d as usize];
        for k in 0..self.reach[d as usize].len() {
            let (c, last) = self.reach[d as usize][k];
            self.stats.object_propagations += 1;
            if v == last {
                self.stats.unions_avoided += 1;
                continue;
            }
            self.stats.full_bytes += self.store.flat_bytes(v);
            let delta = self.store.diff(v, last);
            self.stats.delta_bytes += self.store.flat_bytes(delta);
            self.reach[d as usize][k].1 = v;
            let cur = self.cval[c as usize];
            if delta == EMPTY || !self.store.union_would_change(cur, delta) {
                self.stats.unions_avoided += 1;
                continue;
            }
            self.cval[c as usize] = self.store.union(cur, delta);
            for ci in 0..self.consumers[c as usize].len() {
                let inst = self.consumers[c as usize][ci];
                self.worklist.push(inst);
            }
        }
    }

    // ----- top-level transfer (shared semantics with `TopLevel`) -----

    fn union_pt(&mut self, v: ValueId, add: PtsId) -> bool {
        let new = self.store.union(self.pt[v], add);
        if new == self.pt[v] {
            return false;
        }
        self.pt[v] = new;
        for &u in self.defuse.uses(v) {
            self.worklist.push(u);
        }
        true
    }

    fn insert_pt(&mut self, v: ValueId, obj: ObjId) -> bool {
        let new = self.store.insert(self.pt[v], obj);
        if new == self.pt[v] {
            return false;
        }
        self.pt[v] = new;
        for &u in self.defuse.uses(v) {
            self.worklist.push(u);
        }
        true
    }

    fn is_strong_update(&self, p: ValueId, o: ObjId) -> bool {
        self.singletons.contains(o) && self.aux.value_pts(p).as_singleton() == Some(o)
    }

    fn transfer_top(&mut self, inst: InstId) {
        match &self.prog.insts[inst].kind {
            InstKind::Alloc { dst, obj } => {
                self.insert_pt(*dst, *obj);
            }
            InstKind::Copy { dst, src } => {
                let s = self.pt[*src];
                self.union_pt(*dst, s);
            }
            InstKind::Phi { dst, srcs } => {
                let mut s = EMPTY;
                for &src in srcs {
                    s = self.store.union(s, self.pt[src]);
                }
                self.union_pt(*dst, s);
            }
            InstKind::Field { dst, base, offset } => {
                let objs: Vec<ObjId> = self.store.iter_set(self.pt[*base]).collect();
                for o in objs {
                    let fo = self.prog.field_object(o, *offset);
                    self.insert_pt(*dst, fo);
                }
            }
            InstKind::Call { callee, args, .. } => {
                match callee {
                    Callee::Direct(f) => {
                        self.activate(inst, *f);
                    }
                    Callee::Indirect(fp) => {
                        let candidates: Vec<FuncId> = self
                            .store
                            .iter_set(self.pt[*fp])
                            .filter_map(|o| self.prog.object_as_function(o))
                            .collect();
                        for f in candidates {
                            self.activate(inst, f);
                        }
                    }
                }
                let callees = self.active_callees.get(&inst).map_or(Vec::new(), |v| v.clone());
                let args = args.clone();
                for f in callees {
                    let params = self.prog.functions[f].params.clone();
                    for (a, p) in args.iter().zip(params.iter()) {
                        let s = self.pt[*a];
                        self.union_pt(*p, s);
                    }
                }
            }
            InstKind::FunExit { func, ret } => {
                if let Some(r) = ret {
                    let s = self.pt[*r];
                    let callers = self.active_callers.get(func).map_or(Vec::new(), |v| v.clone());
                    for call in callers {
                        if let InstKind::Call { dst: Some(d), .. } = self.prog.insts[call].kind {
                            self.union_pt(d, s);
                        }
                    }
                }
            }
            InstKind::Load { .. }
            | InstKind::Store { .. }
            | InstKind::Free { .. }
            | InstKind::FunEntry { .. } => {}
        }
    }

    /// Activates a `(call, callee)` edge: wires the µ→χ binding flow
    /// (callers' call-µ into the callee entry χ, callee exit-µ into the
    /// call-return χ) and queues the callee's entry and exit.
    fn activate(&mut self, call: InstId, callee: FuncId) {
        if !self.activated.insert((call, callee)) {
            return;
        }
        self.stats.calls_activated += 1;
        self.active_callees.entry(call).or_default().push(callee);
        self.active_callers.entry(callee).or_default().push(call);
        let func = &self.prog.functions[callee];
        let (entry, exit) = (func.entry_inst, func.exit_inst);
        // ins(call, callee): objects both used at the call site and
        // live-in at the callee — same intersection as the SVFG's
        // call binding. A call's µ events are all call µ, its χ events
        // all call-return χ.
        for u in self.uses_at[call].clone() {
            let (o, c) = (self.uses[u as usize].obj, self.use_class[u as usize]);
            if let Some(&d) = self.entry_defs.get(&(entry, o)) {
                self.producers[d as usize].push(c);
                self.consumers[c as usize].push(entry);
            }
        }
        // outs(call, callee): objects the callee summary-modifies that
        // the call site also defines.
        for d in self.defs_at[call].clone() {
            let o = self.defs[d as usize].obj;
            if let Some(&u) = self.exit_uses.get(&(exit, o)) {
                let c = self.use_class[u as usize];
                self.producers[d as usize].push(c);
                self.consumers[c as usize].push(call);
            }
        }
        // The callee's entry must (re)run to merge the new caller's
        // state; the exit to publish its return value (and its exit-µ
        // accumulators into this call's return χ, which the current
        // pop's χ phase picks up when the activation came from `call`
        // itself).
        self.worklist.push(entry);
        self.worklist.push(exit);
        self.worklist.push(call);
    }

    /// `(set count, total elements, approximate heap bytes)` across the
    /// def values and class accumulators — the Table III storage
    /// analogue.
    fn storage_stats(&self) -> (usize, usize, usize) {
        let mut sets = 0;
        let mut elems = 0;
        let mut bytes = 0;
        for &id in self.val.iter().chain(self.cval.iter()) {
            if id == EMPTY {
                continue;
            }
            sets += 1;
            elems += self.store.set_len(id);
            bytes += self.store.flat_bytes(id);
        }
        (sets, elems, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsfs_ir::parse_program;

    fn solve(src: &str) -> (Program, FlowSensitiveResult) {
        let prog = parse_program(src).unwrap();
        vsfs_ir::verify::verify(&prog).unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let r = run_cfgfree(&prog, &aux);
        (prog, r)
    }

    fn pts(prog: &Program, r: &FlowSensitiveResult, name: &str) -> Vec<String> {
        let v = prog
            .values
            .iter_enumerated()
            .find(|(_, val)| val.name == name)
            .map(|(id, _)| id)
            .unwrap();
        let mut names: Vec<String> =
            r.value_pts(v).iter().map(|o| prog.objects[o].name.clone()).collect();
        names.sort();
        names
    }

    #[test]
    fn strong_update_kills_previous_store() {
        let (prog, r) = solve(
            r#"
            func @main() {
            entry:
              %p = alloc stack P
              %h1 = alloc heap H1
              %h2 = alloc heap H2
              store %h1, %p
              %x = load %p
              store %h2, %p
              %y = load %p
              ret
            }
            "#,
        );
        assert_eq!(pts(&prog, &r, "x"), vec!["H1"], "first load sees only H1");
        assert_eq!(pts(&prog, &r, "y"), vec!["H2"], "strong update killed H1");
        assert!(r.stats.strong_updates > 0);
    }

    #[test]
    fn two_level_loads() {
        let (prog, r) = solve(
            r#"
            func @main() {
            entry:
              %pp = alloc stack PP
              %p = alloc stack P
              %h = alloc heap H
              store %p, %pp
              store %h, %p
              %p2 = load %pp
              %v = load %p2
              ret
            }
            "#,
        );
        assert_eq!(pts(&prog, &r, "p2"), vec!["P"]);
        assert_eq!(pts(&prog, &r, "v"), vec!["H"]);
    }

    #[test]
    fn weak_update_into_heap_accumulates() {
        let (prog, r) = solve(
            r#"
            func @main() {
            entry:
              %h = alloc heap Cell
              %a = alloc heap A
              %b = alloc heap B
              store %a, %h
              store %b, %h
              %v = load %h
              ret
            }
            "#,
        );
        assert_eq!(pts(&prog, &r, "v"), vec!["A", "B"], "heap stores are weak");
        assert_eq!(r.stats.strong_updates, 0);
    }

    #[test]
    fn interprocedural_state_flows_through_calls() {
        let (prog, r) = solve(
            r#"
            func @write(%q) {
            entry:
              %h = alloc heap FromCallee
              store %h, %q
              ret
            }
            func @main() {
            entry:
              %p = alloc stack Cell
              %r = call @write(%p)
              %v = load %p
              ret
            }
            "#,
        );
        assert_eq!(pts(&prog, &r, "v"), vec!["FromCallee"]);
    }

    #[test]
    fn matches_sfs_on_branchy_and_indirect_programs() {
        let srcs = [
            r#"
            global @tab
            func @first(%x) {
            entry:
              ret %x
            }
            func @second(%x) {
            entry:
              %h = alloc heap FromSecond
              ret %h
            }
            func @main() {
            entry:
              %f1 = funaddr @first
              store %f1, @tab
              %fp = load @tab
              %arg = alloc heap Arg
              %r = icall %fp(%arg)
              %f2 = funaddr @second
              store %f2, @tab
              ret
            }
            "#,
            r#"
            func @main() {
            entry:
              %p = alloc stack Cell
              %a = alloc heap A
              %b = alloc heap B
              br then, else
            then:
              store %a, %p
              goto join
            else:
              store %b, %p
              goto join
            join:
              %v = load %p
              ret
            }
            "#,
        ];
        for src in srcs {
            let prog = parse_program(src).unwrap();
            vsfs_ir::verify::verify(&prog).unwrap();
            let aux = vsfs_andersen::analyze(&prog);
            assert_matches_sfs(&prog, &aux, &run_cfgfree(&prog, &aux));
        }
    }

    fn assert_matches_sfs(prog: &Program, aux: &AndersenResult, cf: &FlowSensitiveResult) {
        let mssa = vsfs_mssa::MemorySsa::build(prog, aux);
        let svfg = vsfs_svfg::Svfg::build(prog, aux, &mssa);
        let sfs = crate::run_sfs(prog, aux, &mssa, &svfg);
        assert_eq!(crate::precision_diff(prog, &sfs, cf), None, "cfgfree must match sfs");
        assert_eq!(sfs.callgraph_edges, cf.callgraph_edges);
    }

    fn obj_named(prog: &Program, name: &str) -> ObjId {
        prog.objects.iter_enumerated().find(|(_, o)| o.name == name).map(|(id, _)| id).unwrap()
    }

    #[test]
    fn uses_seeing_the_same_defs_share_one_class() {
        // K weak stores into one heap cell, then M loads of it: every
        // load sees the same K stores plus the entry χ, so the reach
        // relation is K + 1 edges into one class. Per use it was
        // (K + 1) × M edges.
        const K: usize = 5;
        const M: usize = 4;
        let mut src = String::from("func @main() {\nentry:\n  %h = alloc heap Cell\n");
        for i in 0..K {
            src += &format!("  %a{i} = alloc heap A{i}\n  store %a{i}, %h\n");
        }
        for j in 0..M {
            src += &format!("  %v{j} = load %h\n");
        }
        src += "  ret\n}\n";
        let prog = parse_program(&src).unwrap();
        vsfs_ir::verify::verify(&prog).unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let solver = CfgFreeSolver::new(&prog, &aux);
        let cell = obj_named(&prog, "Cell");

        let cell_uses: Vec<usize> =
            (0..solver.uses.len()).filter(|&u| solver.uses[u].obj == cell).collect();
        assert_eq!(cell_uses.len(), M, "the cell is private to @main: no exit µ");
        let class = solver.use_class[cell_uses[0]];
        assert_ne!(class, UNREACHED);
        assert!(cell_uses.iter().all(|&u| solver.use_class[u] == class), "one class");

        let mut stores = 0;
        let mut edges = 0;
        for (d, def) in solver.defs.iter().enumerate() {
            if def.obj != cell {
                continue;
            }
            assert_eq!(solver.reach[d], vec![(class, EMPTY)], "one edge per def");
            stores += usize::from(matches!(def.kind, DefKind::Store { strong: false, .. }));
            edges += solver.reach[d].len();
        }
        assert_eq!(stores, K);
        assert_eq!(edges, K + 1, "K stores and the entry χ, against (K + 1) × M per use");
        assert_eq!(solver.consumers[class as usize].len(), M, "each load consumes the class");

        let r = run_cfgfree(&prog, &aux);
        let all: Vec<String> = (0..K).map(|i| format!("A{i}")).collect();
        for j in 0..M {
            assert_eq!(pts(&prog, &r, &format!("v{j}")), all);
        }
        assert_matches_sfs(&prog, &aux, &r);
    }

    #[test]
    fn load_and_late_indirect_call_share_a_class() {
        // In `loop`, the load of O and the icall's µ(O) see the same
        // defs of O, so they share a class whose first consumer is the
        // load. The icall resolves only once the store to @tab comes
        // round the back edge; `activate` then appends @reader's entry
        // to that class. @reader's store returns to O through the
        // call's χ and the back edge, growing the class after @reader's
        // entry has run: only the appended consumer re-runs the entry,
        // so that `%seen` gets FromReader.
        let src = r#"
            global @tab
            func @reader(%q) {
            entry:
              %seen = load %q
              %h = alloc heap FromReader
              store %h, %q
              ret
            }
            func @main() {
            entry:
              %o = alloc heap O
              %a = alloc heap A
              store %a, %o
              goto loop
            loop:
              %fp = load @tab
              %v = load %o
              %r = icall %fp(%o)
              %f = funaddr @reader
              store %f, @tab
              br loop, done
            done:
              ret
            }
            "#;
        let prog = parse_program(src).unwrap();
        vsfs_ir::verify::verify(&prog).unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let solver = CfgFreeSolver::new(&prog, &aux);
        let o = obj_named(&prog, "O");
        // The class of O's use at the instruction defining `value`.
        let class_at = |value: &str| {
            let v = prog.values.iter_enumerated().find(|(_, x)| x.name == value).unwrap().0;
            let inst = DefUse::def_inst(&prog, v).unwrap();
            let mut at = solver.uses_at[inst].clone();
            let u = at.find(|&u| solver.uses[u as usize].obj == o).unwrap();
            solver.use_class[u as usize]
        };
        let load = class_at("v");
        assert_ne!(load, UNREACHED);
        assert_eq!(load, class_at("r"), "the load and the icall's µ share a class");
        assert_eq!(solver.consumers[load as usize].len(), 1, "only the load before activation");

        let r = run_cfgfree(&prog, &aux);
        assert_eq!(r.callgraph_edges.len(), 1, "the icall resolves");
        assert_eq!(pts(&prog, &r, "v"), vec!["A", "FromReader"]);
        assert_eq!(pts(&prog, &r, "seen"), vec!["A", "FromReader"]);
        assert_matches_sfs(&prog, &aux, &r);
    }

    #[test]
    fn governed_run_degrades_to_andersen() {
        use vsfs_adt::govern::Budget;
        let src = r#"
            func @main() {
            entry:
              %p = alloc stack P
              %h = alloc heap H
              store %h, %p
              %v = load %p
              ret
            }
            "#;
        let prog = parse_program(src).unwrap();
        vsfs_ir::verify::verify(&prog).unwrap();
        let aux = vsfs_andersen::analyze(&prog);
        let governor = Governor::new(Budget::unlimited().with_steps(1));
        let opts =
            crate::IncrementalOptions { solver: crate::SolverKind::CfgFree, ..Default::default() };
        let out = crate::solve(&prog, &aux, None, &opts, Some(&governor));
        assert!(!out.is_complete());
        assert_eq!(out.mode, "flow-insensitive-fallback");
        // Sound: the fallback covers the complete answer.
        let full = run_cfgfree(&prog, &aux);
        for v in prog.values.indices() {
            for o in full.value_pts(v).iter() {
                assert!(out.result.value_pts(v).contains(o));
            }
        }
    }
}
