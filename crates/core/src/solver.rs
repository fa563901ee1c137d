//! The solver family: every flow-sensitive engine behind one dispatch.
//!
//! Four interchangeable solvers produce a [`FlowSensitiveResult`]
//! (DESIGN.md §13):
//!
//! * **dense** — textbook IN/OUT iteration over the ICFG; the slow
//!   oracle the sparse engines are differentially tested against.
//! * **sfs** — staged flow-sensitive analysis over the SVFG
//!   (Hardekopf & Lin), with priority scheduling and difference
//!   propagation.
//! * **vsfs** — the paper's object-versioned SFS; batch solves share
//!   points-to sets per `(object, version)`.
//! * **cfgfree** — flow sensitivity recovered by *constraint ordering*
//!   over the Andersen constraint graph ("Flow Sensitivity without
//!   Control Flow Graph"): no memory SSA and no SVFG are ever built.
//!
//! A fifth member, **unify**, is the flow-insensitive unification tier
//! wrapped as a result of the same shape.
//!
//! [`SolverKind`] names the member; [`SolverCaps`] declares which
//!   pipeline stages it needs and which serving features it supports.
//! [`solve`] is the one place a [`SolverKind`] becomes a solver call:
//! the CLI, `solve_program`'s cold-only path, the benches and the tests
//! go through it, and everything else — the incremental server, snapshots —
//! dispatches on the capabilities instead of hard-wiring the SVFG
//! pipeline. A new solver plugs in by adding a variant, an arm in
//! [`solve`], and an honest `caps()` row.
//!
//! [`FlowSensitiveResult`]: crate::FlowSensitiveResult

use crate::incremental::IncrementalOptions;
use crate::result::{FlowSensitiveResult, GovernedAnalysis};
use crate::versioning::VersionTables;
use crate::{cfgfree, dense, sfs, vsfs};
use vsfs_adt::govern::{Completion, Governor};
use vsfs_andersen::{analyze_unify, analyze_unify_governed, AndersenResult, UnifyConfig};
use vsfs_ir::Program;
use vsfs_mssa::MemorySsa;
use vsfs_svfg::Svfg;

/// Which flow-sensitive solver to run after the Andersen stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverKind {
    /// Dense IN/OUT iteration over the ICFG (differential oracle).
    Dense,
    /// Staged flow-sensitive analysis over the SVFG.
    Sfs,
    /// Object-versioned staged flow-sensitive analysis (the paper).
    #[default]
    Vsfs,
    /// Constraint-ordering flow sensitivity; builds no MSSA/SVFG.
    CfgFree,
    /// Steensgaard-style unification pre-analysis (with no-oversharing
    /// refinements): the cheapest, coarsest tier. Flow-*insensitive*
    /// and cold-only — never builds MSSA or an SVFG.
    Unify,
}

/// What a solver needs from the pipeline and offers to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverCaps {
    /// Needs the staged `MemorySsa` + `Svfg` stages before solving.
    pub needs_svfg: bool,
    /// Supports SVFG-wave incremental re-solving (`resolve_edit`).
    /// Solvers without it still serve edits — by exact cold re-solves.
    pub incremental: bool,
    /// Supports warm-state harvest/seed (and therefore snapshots).
    pub warm: bool,
}

impl SolverKind {
    /// Parses a solver name as it appears on `--solver` and in the
    /// server protocol. Returns `None` for unknown names so each layer
    /// can raise its own typed error.
    pub fn parse(name: &str) -> Option<SolverKind> {
        match name {
            "dense" => Some(SolverKind::Dense),
            "sfs" => Some(SolverKind::Sfs),
            "vsfs" => Some(SolverKind::Vsfs),
            "cfgfree" => Some(SolverKind::CfgFree),
            "unify" => Some(SolverKind::Unify),
            _ => None,
        }
    }

    /// The canonical lowercase name (inverse of [`SolverKind::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Dense => "dense",
            SolverKind::Sfs => "sfs",
            SolverKind::Vsfs => "vsfs",
            SolverKind::CfgFree => "cfgfree",
            SolverKind::Unify => "unify",
        }
    }

    /// The capability row driving pipeline and server dispatch.
    ///
    /// `Sfs` and `Vsfs` share the staged engine for serving: a warm
    /// seed or an edit wave re-solves through `run_sfs_seeded`, which
    /// is bit-identical to both (the central equivalence property), so
    /// both declare `incremental` and `warm`. `Dense` and `CfgFree`
    /// never build an SVFG, so SVFG-wave invalidation and warm-state
    /// export are meaningless for them — the server falls back to
    /// exact cold re-solves instead.
    pub fn caps(self) -> SolverCaps {
        match self {
            SolverKind::Dense | SolverKind::CfgFree | SolverKind::Unify => {
                SolverCaps { needs_svfg: false, incremental: false, warm: false }
            }
            SolverKind::Sfs | SolverKind::Vsfs => {
                SolverCaps { needs_svfg: true, incremental: true, warm: true }
            }
        }
    }
}

impl SolverKind {
    /// Every member, in declaration order (for tests and help text).
    pub const ALL: [SolverKind; 5] = [
        SolverKind::Dense,
        SolverKind::Sfs,
        SolverKind::Vsfs,
        SolverKind::CfgFree,
        SolverKind::Unify,
    ];
}

/// Runs `opts.solver` over `prog` after the auxiliary analysis `aux`.
///
/// `staged` carries the memory SSA and SVFG; the staged solvers (those
/// whose [`SolverCaps::needs_svfg`] is set) require it, the others
/// ignore it. `opts.jobs` sizes VSFS versioning; results are identical
/// for every value.
///
/// Without a `governor` the run always completes. With one, every
/// solver checkpoints cooperatively, and a trip delivers the sound
/// Andersen fallback tagged with the stage that tripped (`"versioning"`
/// or `"solve"`) instead of a partial result.
pub fn solve(
    prog: &Program,
    aux: &AndersenResult,
    staged: Option<(&MemorySsa, &Svfg)>,
    opts: &IncrementalOptions,
    governor: Option<&Governor>,
) -> GovernedAnalysis {
    let staged = || staged.expect("sfs and vsfs solve over the staged MemorySsa + Svfg");
    let deliver = |(result, completion): (FlowSensitiveResult, Completion)| match completion {
        Completion::Complete => GovernedAnalysis::complete(result),
        Completion::Degraded(reason) => GovernedAnalysis::fallback(prog, aux, "solve", reason),
    };
    match opts.solver {
        SolverKind::Dense => deliver(dense::solve_impl(prog, aux, governor)),
        SolverKind::Sfs => {
            let (mssa, svfg) = staged();
            deliver(sfs::solve_inner(prog, aux, mssa, svfg, governor))
        }
        SolverKind::Vsfs => {
            let (mssa, svfg) = staged();
            let tables = match governor {
                None => VersionTables::build_with_jobs(prog, mssa, svfg, opts.jobs),
                Some(gov) => {
                    let vt = VersionTables::build_governed(prog, mssa, svfg, opts.jobs, gov);
                    if let Completion::Degraded(reason) = vt.completion {
                        return GovernedAnalysis::fallback(prog, aux, "versioning", reason);
                    }
                    vt.result
                }
            };
            deliver(vsfs::solve_with_tables(prog, aux, mssa, svfg, tables, governor))
        }
        SolverKind::CfgFree => deliver(cfgfree::solve_impl(prog, aux, governor)),
        SolverKind::Unify => {
            let unify = match governor {
                None => analyze_unify(prog),
                Some(gov) => {
                    let out = analyze_unify_governed(prog, UnifyConfig::default(), gov);
                    if let Completion::Degraded(reason) = out.completion {
                        // A partial unification fixpoint is unsound, so it
                        // cannot be served. The complete Andersen aux is
                        // already in hand and over-approximates every
                        // flow-sensitive answer, so it stands in: one rung
                        // *up* in precision from what was asked, still sound.
                        return GovernedAnalysis::fallback(prog, aux, "solve", reason);
                    }
                    out.result
                }
            };
            GovernedAnalysis::complete(FlowSensitiveResult::from_unify(prog, &unify))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_member() {
        for kind in SolverKind::ALL {
            assert_eq!(SolverKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SolverKind::parse("ander"), None);
        assert_eq!(SolverKind::parse("bogus"), None);
        assert_eq!(SolverKind::parse(""), None);
    }

    #[test]
    fn capability_rows_are_internally_consistent() {
        for kind in SolverKind::ALL {
            let caps = kind.caps();
            // Warm seeding and wave invalidation both live on the SVFG;
            // a solver cannot support either without building one.
            if caps.incremental || caps.warm {
                assert!(caps.needs_svfg, "{} claims warm/incremental without an SVFG", kind.name());
            }
        }
        assert_eq!(SolverKind::default(), SolverKind::Vsfs);
    }

    /// Property: `parse` is the exact inverse of `name` — every member
    /// round-trips, every *perturbation* of a canonical name (case
    /// flip, truncation, extension, random garbage) parses to `None`
    /// unless it happens to equal another canonical name verbatim.
    #[test]
    fn parse_name_round_trip_property() {
        vsfs_testkit::check("solverkind_parse_name_round_trip", |rng| {
            let kind = SolverKind::ALL[rng.gen_range(0..SolverKind::ALL.len())];
            let name = kind.name();
            assert_eq!(SolverKind::parse(name), Some(kind));

            let mutated = match rng.gen_range(0..4u32) {
                0 => {
                    // Flip the case of one letter.
                    let i = rng.gen_range(0..name.len());
                    name.chars()
                        .enumerate()
                        .map(|(k, c)| if k == i { c.to_ascii_uppercase() } else { c })
                        .collect::<String>()
                }
                1 => name[..rng.gen_range(0..name.len())].to_string(),
                2 => format!("{name}{}", rng.gen_range(0..10u32)),
                _ => {
                    let len = rng.gen_range(1..12usize);
                    (0..len)
                        .map(|_| (b'a' + (rng.gen_range(0..26u32) as u8)) as char)
                        .collect::<String>()
                }
            };
            match SolverKind::parse(&mutated) {
                // A mutation may legitimately land on a canonical name.
                Some(k) => assert_eq!(k.name(), mutated),
                None => assert!(SolverKind::ALL.iter().all(|k| k.name() != mutated)),
            }
        });
    }
}
