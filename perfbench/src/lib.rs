//! The repository benchmark.
//!
//! Three workloads (see `README.md` for why each exists):
//!
//! * `bake-vsfs` — cold batch analysis of a `bake`-shaped program with
//!   the default (versioned) solver, followed by a batch of queries on
//!   the result;
//! * `bake-cfgfree` — the same program solved by the CFG-free solver;
//! * `ninja-serve` — one resident [`vsfs_server::Server`] session driven
//!   in-process as a closed loop with one client: edit, `check`, then a
//!   batch of `pts`/`alias` queries, repeated.
//!
//! An untraced run measures the end-to-end metrics ([`END_TO_END`]). A
//! traced run ([`trace`]) times every call the benchmark makes into a
//! layer's public functions and reports the per-layer metrics
//! ([`PER_LAYER`]). Both runs collect the same deterministic counters
//! ([`Report::counters`]), which must agree exactly.

pub mod batch;
pub mod serve;
mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use vsfs_workloads::WorkloadConfig;

/// End-to-end metrics every untraced run reports, with their units.
/// Query latencies are printed but not among them: a query takes
/// microseconds, so its percentiles follow the machine's changes of
/// speed from moment to moment, and moved by up to 29% between runs of
/// one program.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("analyze_s", "s"), ("peak_heap_mib", "MiB"), ("ops_per_s", "1/s")];

/// Per-layer metrics every traced run reports, with their units. A
/// layer the workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ir.parse_s", "s"),
    ("andersen.busy_s", "s"),
    ("andersen.peak_mib", "MiB"),
    ("mssa.busy_s", "s"),
    ("mssa.peak_mib", "MiB"),
    ("svfg.busy_s", "s"),
    ("svfg.peak_mib", "MiB"),
    ("svfg.nodes", "count"),
    ("svfg.indirect_edges", "count"),
    ("versioning.busy_s", "s"),
    ("versioning.peak_mib", "MiB"),
    ("versioning.prelabels", "count"),
    ("versioning.versions", "count"),
    ("versioning.reliance_edges", "count"),
    ("vsfs.busy_s", "s"),
    ("vsfs.peak_mib", "MiB"),
    ("vsfs.node_pops", "count"),
    ("vsfs.slot_pops", "count"),
    ("vsfs.pushes_suppressed", "count"),
    ("vsfs.unions_attempted", "count"),
    ("vsfs.unions_avoided_ratio", "ratio"),
    ("vsfs.delta_saved_ratio", "ratio"),
    ("vsfs.scc_solves_skipped", "count"),
    ("cfgfree.busy_s", "s"),
    ("cfgfree.peak_mib", "MiB"),
    ("cfgfree.node_pops", "count"),
    ("cfgfree.unions_attempted", "count"),
    ("cfgfree.unions_avoided_ratio", "ratio"),
    ("cfgfree.stored_object_sets", "count"),
    ("ptstore.unique_sets", "count"),
    ("ptstore.chunk_bytes", "bytes"),
    ("ptstore.union_hit_rate", "ratio"),
    ("ptstore.flat_saving_ratio", "ratio"),
    ("sfs.solve_s", "s"),
    ("incremental.self_s", "s"),
    ("incremental.dirty_ratio", "ratio"),
    ("incremental.waves", "count"),
    ("incremental.carried_sets", "count"),
    ("incremental.cold_fallbacks", "count"),
    ("checkers.busy_s", "s"),
    ("checkers.findings", "count"),
    ("queries.pts_ns", "ns"),
    ("queries.alias_ns", "ns"),
    ("server.dispatch_overhead_us", "us"),
    ("server.response_bytes", "bytes"),
    ("trace.analyze_s", "s"),
];

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Bytes per MiB, for the `*_mib` metrics.
pub const MIB: f64 = (1u64 << 20) as f64;

/// A workload name as given on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold batch analysis of `bake` with the versioned solver.
    BakeVsfs,
    /// Cold batch analysis of `bake` with the CFG-free solver.
    BakeCfgfree,
    /// A resident server session on `ninja`.
    NinjaServe,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::BakeVsfs, Workload::BakeCfgfree, Workload::NinjaServe];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BakeVsfs => "bake-vsfs",
            Workload::BakeCfgfree => "bake-cfgfree",
            Workload::NinjaServe => "ninja-serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Share of a program's functions the seeded edits may touch.
const EDITABLE: f64 = 0.5;

/// Local edits that make a run's program from the shape's base program.
const SEED_EDITS: usize = 8;

/// Seed purpose tag of the edits that make the program.
const PROGRAM_EDITS: u64 = 3;

/// The generator configuration of suite program `shape`, with editable
/// functions so that the workload seed can vary the program (see
/// [`seeded_program`]).
///
/// # Panics
///
/// Panics if `shape` is not a suite benchmark name.
pub(crate) fn shape_config(shape: &str) -> WorkloadConfig {
    let spec = vsfs_workloads::suite::benchmark(shape).expect("shape is a suite benchmark");
    WorkloadConfig { edit_fraction: EDITABLE, ..spec.config }
}

/// The program text of one run: the shape's base program (generated
/// from the suite's fixed generator seed) after [`SEED_EDITS`] local
/// edits chosen by `seed`, each giving one function a private epilogue.
///
/// Re-seeding the generator itself would change the program's cost far
/// more than any change a later commit makes: across generator seeds
/// 1 to 3 the CFG-free solve of `bake` took 10 to 26 s. Local edits
/// change the text, the objects and the SVFG while keeping the cost
/// comparable across seeds.
pub(crate) fn seeded_program(config: &WorkloadConfig, seed: u64) -> String {
    let script =
        vsfs_workloads::edit_script_local(config, derive_seed(seed, PROGRAM_EDITS), SEED_EDITS);
    script.steps.into_iter().last().map_or(script.base, |s| s.program).to_string()
}

/// Derives an independent seed for one purpose (edit script, query
/// mix) from the workload seed, so that one argument fixes every input.
pub(crate) fn derive_seed(seed: u64, purpose: u64) -> u64 {
    let mut x = seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 29)
}

/// One measured metric: its value, unit and how many samples it
/// summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// The unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: usize,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (analyses, requests, output checks).
    pub attempted: u64,
    /// Attempted operations that failed or whose output check failed.
    pub failed: u64,
    /// What each failure was, for the log.
    pub failures: Vec<String>,
    /// Metrics for the final JSON line (end-to-end or per-layer).
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Metrics printed for the reader but not gated: query latencies,
    /// and the serve workload's edit, check and session figures.
    pub extra: BTreeMap<&'static str, Metric>,
    /// Deterministic work counters (versions, pops, unique sets, dirty
    /// nodes, findings). Equal across runs of one seed, traced or not.
    pub counters: BTreeMap<&'static str, u64>,
}

impl Report {
    /// Records one attempted operation and whether it succeeded.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records a metric for the final JSON line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(name, Metric { value, unit, samples });
    }

    /// Records a metric printed for the reader only.
    pub fn extra(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.extra.insert(name, Metric { value, unit, samples });
    }

    /// Reports every counter that is also a per-layer metric.
    pub fn layer_counters(&mut self) {
        for (&name, &value) in &self.counters {
            if let Some(&(_, unit)) = PER_LAYER.iter().find(|&&(n, _)| n == name) {
                self.metrics.insert(name, Metric { value: value as f64, unit, samples: 1 });
            }
        }
    }

    /// Fills every per-layer metric the workload did not measure with 0,
    /// so a traced run always reports the full list.
    pub fn fill_per_layer(&mut self) {
        for &(name, unit) in PER_LAYER {
            self.metrics.entry(name).or_insert(Metric { value: 0.0, unit, samples: 0 });
        }
    }

    /// `true` when no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The human-readable lines: every metric with unit and sample
    /// count, the counters, and the failures.
    pub fn human_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, m) in self.metrics.iter().chain(&self.extra) {
            out.push(format!("metric {name} = {} {} (n={})", m.value, m.unit, m.samples));
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        out.push(format!("metric error_rate = {error_rate} ratio (n={})", self.attempted));
        for (name, v) in &self.counters {
            out.push(format!("counter {name} = {v}"));
        }
        for f in &self.failures {
            out.push(format!("FAILED: {f}"));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(metrics, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.unit)
                .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}
