//! The serve workload: one resident [`Server`] driven in-process through
//! [`Server::handle_line`] as a closed loop with one client.
//!
//! Set-up generates the program and its edit script and `load`s the
//! program (a cold SFS solve). Each cycle of the timed loop sends one
//! local edit, one `check` and a batch of `pts`/`alias` queries, each
//! request waiting for the previous response. Output checks: every
//! response must be `ok`; the final fingerprint and `check` findings
//! must equal those of a cold [`solve_program`] on the final text; and
//! set-up checks the hand-written checker corpus against its
//! `.expected` files through the same server.
//!
//! The traced run sends the same requests and, beside each, replays the
//! library calls the server makes under spans: [`resolve_edit`] on the
//! same composed text, the front-end stages on that text again (to
//! split the edit's time), [`run_checkers`] and the [`AliasQueries`]
//! calls.

use crate::stats::{median, percentile, samples_needed};
use crate::trace::Tracer;
use crate::{derive_seed, seeded_program, shape_config, Report, MIB};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use vsfs_adt::mem::MemScope;
use vsfs_checkers::{render_finding, run_checkers, FlowView};
use vsfs_core::queries::AliasQueries;
use vsfs_core::{resolve_edit, solve_program, IncrementalOptions, ProgramState};
use vsfs_server::json::{self, Json};
use vsfs_server::source::SourceMap;
use vsfs_server::Server;
use vsfs_testkit::Rng;
use vsfs_workloads::WorkloadConfig;

/// How often set-up runs; `setup_s` is the median.
const SETUPS: usize = 3;

/// Queries after each edit and `check`: half `pts`, half `alias`.
const QUERIES_PER_EDIT: usize = 60;

/// Edits generated in set-up; the loop never needs more.
const MAX_EDITS: usize = 400;

/// Edits whose counters are reported, so the counters cover the same
/// work whatever the run length.
const COUNTED_EDITS: usize = 8;

/// Seed purpose tags of the edit script and the query mix.
const EDIT_SCRIPT: u64 = 1;
const QUERY_MIX: u64 = 2;

/// The resident program's id.
const ID: &str = "w";

/// The generator configuration: suite shape `shape` with frees and
/// possibly-null pointers mixed in, so that `check` does real work.
fn serve_config(shape: &str) -> WorkloadConfig {
    WorkloadConfig { free_fraction: 0.1, null_fraction: 0.1, ..shape_config(shape) }
}

fn str_json(s: &str) -> String {
    Json::Str(s.to_string()).to_line()
}

/// A parsed response, or `None` when it is not `ok`.
fn ok(resp: &str) -> Option<Json> {
    json::parse(resp).ok().filter(|r| matches!(r.get("ok"), Some(Json::Bool(true))))
}

/// Whether a response is a success, without parsing it: `json::parse`
/// takes time quadratic in a string's length, and `check` responses
/// run to hundreds of kilobytes.
fn is_ok(resp: &str) -> bool {
    resp.starts_with("{\"ok\":true,")
}

/// The raw text of top-level field `key` of a success response (a
/// number, or a string without its quotes). Every field the benchmark
/// reads precedes any free text in the response.
fn field<'a>(resp: &'a str, key: &str) -> Option<&'a str> {
    let at = resp.find(&format!(",\"{key}\":"))? + key.len() + 4;
    let rest = &resp[at..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

fn field_u64(resp: &str, key: &str) -> u64 {
    field(resp, key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Sends `req` and times it.
fn send(server: &mut Server, req: &str) -> (String, f64) {
    let t = Instant::now();
    let (resp, _) = server.handle_line(req);
    (resp, t.elapsed().as_secs_f64())
}

/// The `findings[].message` lines of a `check` response.
fn finding_lines(resp: &Json) -> Vec<String> {
    resp.get("findings")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|f| f.get("message").and_then(Json::as_str).map(str::to_string))
        .collect()
}

/// Loads every hand-written checker corpus program under `dir` into
/// `server`, runs `check`, and compares the findings with the program's
/// `.expected` file, order included.
fn check_corpus(server: &mut Server, dir: &Path, report: &mut Report) {
    let cases = match vsfs_checkers::load_corpus(dir) {
        Ok(cases) if !cases.is_empty() => cases,
        Ok(_) => return report.attempt(false, || format!("{} holds no corpus", dir.display())),
        Err(e) => return report.attempt(false, || format!("{}: {e}", dir.display())),
    };
    for case in cases {
        let id = format!("corpus-{}", case.name);
        let load = format!(
            "{{\"op\":\"load\",\"id\":{},\"source\":{}}}",
            str_json(&id),
            str_json(&case.source)
        );
        let check = format!("{{\"op\":\"check\",\"id\":{}}}", str_json(&id));
        let loaded = ok(&server.handle_line(&load).0).is_some();
        let found = ok(&server.handle_line(&check).0).map(|r| finding_lines(&r));
        server.handle_line(&format!("{{\"op\":\"unload\",\"id\":{}}}", str_json(&id)));
        report.attempt(loaded && found.as_ref() == Some(&case.expected), || {
            format!("corpus {}: check gave {found:?}, expected {:?}", case.name, case.expected)
        });
    }
}

/// A query of the mix, addressed by function and value name.
#[derive(Debug, Clone)]
enum Query {
    Pts { func: String, value: String },
    Alias { func: String, p: String, q: String },
}

impl Query {
    fn request(&self) -> String {
        match self {
            Query::Pts { func, value } => format!(
                "{{\"op\":\"pts\",\"id\":\"{ID}\",\"func\":{},\"value\":{}}}",
                str_json(func),
                str_json(&format!("%{value}"))
            ),
            Query::Alias { func, p, q } => format!(
                "{{\"op\":\"alias\",\"id\":\"{ID}\",\"func\":{},\"p\":{},\"q\":{}}}",
                str_json(func),
                str_json(&format!("%{p}")),
                str_json(&format!("%{q}"))
            ),
        }
    }

    /// The library calls a query makes, on `state`: the value lookup is
    /// server code and stays outside the span.
    fn replay(&self, state: &ProgramState, tr: &mut Tracer) {
        let prog = &state.prog;
        let lookup = |func: &str, name: &str| {
            let f = prog.function_by_name(func);
            prog.values
                .iter_enumerated()
                .find(|(_, v)| v.name == name && v.func == f)
                .map(|(id, _)| id)
        };
        let queries = AliasQueries::new(prog, &state.analysis.result);
        match self {
            Query::Pts { func, value } => {
                if let Some(v) = lookup(func, value) {
                    tr.call("AliasQueries::pointee_names", || {
                        let mut names = queries.pointee_names(v);
                        names.sort_unstable();
                        names.len()
                    });
                }
            }
            Query::Alias { func, p, q } => {
                if let (Some(p), Some(q)) = (lookup(func, p), lookup(func, q)) {
                    tr.call("AliasQueries::may_alias", || queries.may_alias(p, q));
                }
            }
        }
    }
}

/// Named values of the shape's unedited program, grouped by function.
/// Local edits keep every baseline line, so these names stay valid
/// through the session (epilogue values come and go with the edits).
fn query_pool(config: &WorkloadConfig) -> Vec<(String, Vec<String>)> {
    let prog = vsfs_workloads::generate(config);
    let mut by_func: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for v in prog.values.iter() {
        if let Some(f) = v.func {
            if !v.name.is_empty() {
                by_func.entry(prog.functions[f].name.clone()).or_default().push(v.name.clone());
            }
        }
    }
    by_func.into_iter().filter(|(_, vs)| !vs.is_empty()).collect()
}

fn next_queries(rng: &mut Rng, pool: &[(String, Vec<String>)]) -> Vec<Query> {
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    (0..QUERIES_PER_EDIT)
        .map(|i| {
            let (func, values) = &pool[pick(pool.len())];
            let func = func.clone();
            if i % 2 == 0 {
                Query::Pts { func, value: values[pick(values.len())].clone() }
            } else {
                let p = values[pick(values.len())].clone();
                Query::Alias { func, p, q: values[pick(values.len())].clone() }
            }
        })
        .collect()
}

/// Everything set-up produces.
struct Session {
    server: Server,
    base: String,
    edits: Vec<(String, String)>,
    load_fingerprint: String,
}

fn set_up(config: &WorkloadConfig, seed: u64, report: &mut Report) -> Option<Session> {
    let base = seeded_program(config, seed);
    let script =
        vsfs_workloads::edit_script_local(config, derive_seed(seed, EDIT_SCRIPT), MAX_EDITS);
    let edits = script.steps.into_iter().map(|s| (s.name, s.text)).collect();
    let mut server = Server::new();
    let load = format!("{{\"op\":\"load\",\"id\":\"{ID}\",\"source\":{}}}", str_json(&base));
    let (resp, _) = server.handle_line(&load);
    let loaded = ok(&resp);
    report.attempt(loaded.is_some(), || format!("load failed: {resp}"));
    let load_fingerprint = loaded?.get("fingerprint").and_then(Json::as_str)?.to_string();
    Some(Session { server, base, edits, load_fingerprint })
}

/// Per-edit figures the counters and the traced run aggregate. All
/// but `solve_s` cover the first [`COUNTED_EDITS`] edits only.
#[derive(Default)]
struct EditLog {
    dirty: Vec<u64>,
    total: Vec<u64>,
    carried: Vec<u64>,
    findings: Vec<u64>,
    waves: Vec<u64>,
    cold: Vec<bool>,
    /// `SolveReport::solve_seconds` of every replayed edit.
    solve_s: Vec<f64>,
    /// SVFG nodes, indirect edges and store counters after the last
    /// counted edit.
    last: Option<(usize, usize, vsfs_adt::PtsStoreStats)>,
}

/// Runs the serve workload on suite shape `shape` for at least
/// `seconds` of timed cycles, and enough of them for an edit p90.
pub fn run(shape: &str, seed: u64, seconds: f64, corpus: &Path, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    let config = serve_config(shape);

    let mut setup = Vec::with_capacity(SETUPS);
    let mut session = None;
    for _ in 0..SETUPS {
        drop(session.take());
        let t = Instant::now();
        session = set_up(&config, seed, &mut report);
        setup.push(t.elapsed().as_secs_f64());
    }
    let Some(Session { mut server, base, edits, load_fingerprint }) = session else {
        return report;
    };
    check_corpus(&mut server, corpus, &mut report);

    // The library-side twin of the resident state, for the traced run.
    let opts = IncrementalOptions::default();
    let mut lib_state = if tr.enabled() {
        match solve_program(&base, opts, None, None) {
            Ok((state, _)) => Some(state),
            Err(e) => {
                report.attempt(false, || format!("library load failed: {e}"));
                None
            }
        }
    } else {
        None
    };

    let pool = query_pool(&config);
    let mut rng = Rng::seed_from_u64(derive_seed(seed, QUERY_MIX));
    let mut sources = SourceMap::parse(&base);
    let mut log = EditLog::default();
    let mut edit_s = Vec::new();
    let mut check_s = Vec::new();
    let mut query_s = Vec::new();
    let mut peaks = Vec::new();
    let mut response_bytes = Vec::new();
    let mut last_fingerprint = load_fingerprint;
    let mut last_check = String::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    // Enough edits for the counters and for a p90 of edit latency.
    let min_edits = samples_needed(0.9).max(COUNTED_EDITS);
    for (name, text) in &edits {
        if edit_s.len() >= min_edits && start.elapsed() >= budget {
            break;
        }
        let counted = edit_s.len() < COUNTED_EDITS;
        let scope = MemScope::start();

        let edit = format!(
            "{{\"op\":\"edit\",\"id\":\"{ID}\",\"delta\":[{{\"action\":\"replace\",\
             \"name\":{},\"text\":{}}}]}}",
            str_json(name),
            str_json(text)
        );
        let op = tr.open("server.edit");
        let (resp, secs) = send(&mut server, &edit);
        tr.close(op);
        edit_s.push(secs);
        report.attempt(is_ok(&resp), || format!("edit of {name} failed: {resp}"));
        if !is_ok(&resp) {
            break;
        }
        if counted && !tr.enabled() {
            log.dirty.push(field_u64(&resp, "dirty_nodes"));
            log.total.push(field_u64(&resp, "total_nodes"));
            log.carried.push(field_u64(&resp, "carried_sets"));
        }
        last_fingerprint = field(&resp, "fingerprint").unwrap_or_default().to_string();
        if sources.replace(name, text).is_err() {
            report.attempt(false, || format!("no function {name} to replace"));
            break;
        }
        if let Some(prev) = lib_state.take() {
            lib_state =
                replay_edit(&prev, &sources.compose(), opts, tr, &mut log, counted, &mut report);
        }

        let check = format!("{{\"op\":\"check\",\"id\":\"{ID}\"}}");
        let op = tr.open("server.check");
        let (resp, secs) = send(&mut server, &check);
        tr.close(op);
        check_s.push(secs);
        report.attempt(is_ok(&resp), || format!("check failed: {resp}"));
        if counted {
            response_bytes.push(resp.len() as f64);
        }
        if let Some(state) = &lib_state {
            let svfg = state.svfg().expect("the server's default solver is staged");
            let findings = tr.call("run_checkers", || {
                run_checkers(&state.prog, svfg, &FlowView(&state.analysis.result))
            });
            if counted {
                log.findings.push(findings.len() as u64);
            }
        } else if counted {
            log.findings.push(field_u64(&resp, "count"));
        }
        last_check = resp;

        for q in next_queries(&mut rng, &pool) {
            let op = tr.open("server.query");
            let (resp, secs) = send(&mut server, &q.request());
            tr.close(op);
            query_s.push(secs);
            report.attempt(is_ok(&resp), || format!("{q:?} failed: {resp}"));
            if counted {
                response_bytes.push(resp.len() as f64);
            }
            if let Some(state) = &lib_state {
                let op = tr.open("library.query");
                q.replay(state, tr);
                tr.close(op);
            }
        }
        peaks.push(scope.peak_bytes() as f64);
    }

    // Output check: a cold solve of the final text must agree with the
    // resident state on the fingerprint and the findings.
    let last_findings = ok(&last_check).map(|r| finding_lines(&r)).unwrap_or_default();
    let final_text = sources.compose();
    match solve_program(&final_text, opts, None, None) {
        Ok((cold, _)) => {
            let fp = format!("{:016x}", cold.fingerprint);
            report.attempt(fp == last_fingerprint, || {
                format!("final fingerprint {last_fingerprint}, cold solve {fp}")
            });
            let svfg = cold.svfg().expect("the server's default solver is staged");
            let findings = run_checkers(&cold.prog, svfg, &FlowView(&cold.analysis.result));
            let lines: Vec<String> =
                findings.iter().map(|f| render_finding(&cold.prog, f)).collect();
            report.attempt(lines == last_findings, || {
                format!(
                    "final check gave {} findings, cold solve {}",
                    last_findings.len(),
                    lines.len()
                )
            });
        }
        Err(e) => report.attempt(false, || format!("cold solve of the final text failed: {e}")),
    }

    report.counters.insert("incremental.dirty_nodes", log.dirty.iter().sum());
    report.counters.insert("incremental.carried_sets", log.carried.iter().sum());
    report.counters.insert("checkers.findings", log.findings.iter().sum());

    let ms = |v: &[f64]| v.iter().map(|s| s * 1e3).collect::<Vec<f64>>();
    let us: Vec<f64> = query_s.iter().map(|s| s * 1e6).collect();
    let (edit_ms, check_ms) = (ms(&edit_s), ms(&check_s));
    let requests = edit_s.len() + check_s.len() + query_s.len();
    let busy: f64 = edit_s.iter().chain(&check_s).chain(&query_s).sum();
    let ops_per_s = if busy > 0.0 { requests as f64 / busy } else { 0.0 };
    if tr.enabled() {
        per_layer(&mut report, tr, &log);
        report.metric("trace.analyze_s", median(&edit_s).unwrap_or(0.0), "s", edit_s.len());
        // The library's share of a query is its `AliasQueries` call.
        let mut lib_us = tr.seconds("AliasQueries::pointee_names");
        lib_us.extend(tr.seconds("AliasQueries::may_alias"));
        lib_us.iter_mut().for_each(|s| *s *= 1e6);
        let overhead = median(&us).unwrap_or(0.0) - median(&lib_us).unwrap_or(0.0);
        report.metric("server.dispatch_overhead_us", overhead, "us", us.len());
        report.metric(
            "server.response_bytes",
            median(&response_bytes).unwrap_or(0.0),
            "bytes",
            response_bytes.len(),
        );
        report.fill_per_layer();
    } else {
        report.metric("setup_s", median(&setup).unwrap_or(0.0), "s", setup.len());
        report.metric("analyze_s", median(&edit_s).unwrap_or(0.0), "s", edit_s.len());
        report.metric("peak_heap_mib", median(&peaks).unwrap_or(0.0) / MIB, "MiB", peaks.len());
        report.extra("query_p50_us", median(&us).unwrap_or(0.0), "us", us.len());
        match percentile(&us, 0.99) {
            Some(p99) => report.extra("query_p99_us", p99, "us", us.len()),
            None => report.attempt(false, || {
                format!("{} queries; the p99 needs {}", us.len(), samples_needed(0.99))
            }),
        }
        report.metric("ops_per_s", ops_per_s, "1/s", requests);
    }
    report.extra("edit_p50_ms", median(&edit_ms).unwrap_or(0.0), "ms", edit_ms.len());
    if let Some(p90) = percentile(&edit_ms, 0.9) {
        report.extra("edit_p90_ms", p90, "ms", edit_ms.len());
    }
    report.extra("check_p50_ms", median(&check_ms).unwrap_or(0.0), "ms", check_ms.len());
    report.extra("session_ops_per_s", ops_per_s, "1/s", requests);
    report
}

/// Replays one edit on the library side: [`resolve_edit`] on the
/// composed text, then the front-end stages again on the same text.
fn replay_edit(
    prev: &ProgramState,
    text: &str,
    opts: IncrementalOptions,
    tr: &mut Tracer,
    log: &mut EditLog,
    counted: bool,
    report: &mut Report,
) -> Option<ProgramState> {
    let op = tr.open("library.edit");
    let solved = tr.call("resolve_edit", || resolve_edit(prev, text, opts, None, None));
    let (state, solve) = match solved {
        Ok(s) => s,
        Err(e) => {
            tr.close(op);
            report.attempt(false, || format!("library edit failed: {e}"));
            return None;
        }
    };
    let prog = tr.call("parse_program", || {
        let prog = vsfs_ir::parse_program(text).expect("the server parsed this text");
        vsfs_ir::verify::verify(&prog).expect("the server verified this text");
        prog
    });
    let config = vsfs_andersen::AndersenConfig::with_jobs(opts.jobs);
    let aux = tr.call("analyze", || vsfs_andersen::analyze_with_config(&prog, config));
    let mssa = tr.call("MemorySsa::build", || vsfs_mssa::MemorySsa::build(&prog, &aux));
    let svfg = tr.call("Svfg::build", || vsfs_svfg::Svfg::build(&prog, &aux, &mssa));
    tr.call("StableKeys::build", || vsfs_svfg::StableKeys::build(&prog, &mssa, &svfg));
    tr.close(op);
    log.solve_s.push(solve.solve_seconds);
    if counted {
        log.dirty.push(solve.dirty_nodes as u64);
        log.total.push(solve.total_nodes as u64);
        log.carried.push(solve.carried_sets as u64);
        log.waves.push(solve.waves as u64);
        log.cold.push(!solve.incremental);
        log.last = Some((
            svfg.node_count(),
            svfg.indirect_edge_count(),
            state.analysis.result.stats.store,
        ));
    }
    Some(state)
}

/// The per-layer metrics of a traced serve run.
fn per_layer(report: &mut Report, tr: &Tracer, log: &EditLog) {
    tr.layer(report, "ir.parse_s", None, "parse_program");
    tr.layer(report, "andersen.busy_s", Some("andersen.peak_mib"), "analyze");
    tr.layer(report, "mssa.busy_s", Some("mssa.peak_mib"), "MemorySsa::build");
    tr.layer(report, "svfg.busy_s", Some("svfg.peak_mib"), "Svfg::build");
    tr.layer(report, "checkers.busy_s", None, "run_checkers");
    tr.query_layers(report);
    report.layer_counters();

    // incremental.self_s = resolve_edit - front-end replay - solve.
    let resolve = tr.seconds_by_op("resolve_edit");
    let mut front = BTreeMap::new();
    for span in ["parse_program", "analyze", "MemorySsa::build", "Svfg::build", "StableKeys::build"]
    {
        for (op, s) in tr.seconds_by_op(span) {
            *front.entry(op).or_insert(0.0) += s;
        }
    }
    let self_s: Vec<f64> = resolve
        .iter()
        .zip(&log.solve_s)
        .map(|((op, r), solve)| r - front.get(op).copied().unwrap_or(0.0) - solve)
        .collect();
    report.metric("incremental.self_s", median(&self_s).unwrap_or(0.0), "s", self_s.len());
    report.metric("sfs.solve_s", median(&log.solve_s).unwrap_or(0.0), "s", log.solve_s.len());
    let n = log.dirty.len();
    let (dirty, total) = (log.dirty.iter().sum::<u64>(), log.total.iter().sum::<u64>());
    let ratio = if total == 0 { 0.0 } else { dirty as f64 / total as f64 };
    report.metric("incremental.dirty_ratio", ratio, "ratio", n);
    report.metric("incremental.waves", log.waves.iter().sum::<u64>() as f64, "count", n);
    let cold = log.cold.iter().filter(|&&c| c).count();
    report.metric("incremental.cold_fallbacks", cold as f64, "count", n);
    if let Some((nodes, indirect, store)) = &log.last {
        report.metric("svfg.nodes", *nodes as f64, "count", 1);
        report.metric("svfg.indirect_edges", *indirect as f64, "count", 1);
        crate::batch::ptstore_metrics(report, store);
    }
}
