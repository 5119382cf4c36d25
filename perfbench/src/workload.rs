//! The three workloads: inputs made from a seed, one timed pass, and the
//! oracle check of a pass's answers.
//!
//! Every pass drives the public pipeline calls itself: `parser::parse` →
//! `extract::extract` → `cycles::collapse_assign_cycles` → `schedule_for`
//! → `run_threaded_batch` on a fresh `SharedJmpStore` (the work `run`
//! does), or `AnalysisSession::{submit, apply_delta}` for the session
//! workload. It always runs `Mode::DataSharingSched` on
//! `Backend::Threaded` with each profile's `solver_config()`.

use crate::trace::Tracer;
use parcfl_check::{check_soundness, diff_answers, OracleCache, OracleConfig};
use parcfl_core::{Answer, SharedJmpStore, SolverConfig};
use parcfl_frontend::{cycles, extract, parser, pretty};
use parcfl_pag::{DeltaOp, NodeId, Pag, PagDelta};
use parcfl_runtime::{
    run_threaded_batch, schedule_for, AnalysisSession, Backend, DeltaReport, Mode, RunConfig,
    RunStats,
};
use parcfl_synth::{generate, mutate::sample_edits, table1_profiles, Profile};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 20 Table-I-shaped profiles in several seeded programs each,
    /// every program analysed from source with its full query batch.
    SuiteBatch,
    /// Many `Profile::small` programs, each with a small seeded sample of
    /// queries.
    ManySmall,
    /// Mid-size programs, each primed in its own `AnalysisSession`, then
    /// single-edge edits, each applied and reverted, with a sampled
    /// requery after every `apply_delta`.
    EditRequery,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SuiteBatch,
        Workload::ManySmall,
        Workload::EditRequery,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteBatch => "suite-batch",
            Workload::ManySmall => "many-small",
            Workload::EditRequery => "edit-requery",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Workload parameters. Every output records them.
#[derive(Clone, Debug)]
pub struct Params {
    /// `suite-batch`: how many Table-I profiles, taken in table order.
    pub suite_profiles: usize,
    /// `suite-batch`: seeded programs per profile. One program per
    /// profile leaves the suite's total work ~20% apart from seed to seed
    /// (traversed steps 20.6M on one seed, 24.6M on another).
    pub suite_variants: usize,
    /// `many-small`: programs per pass.
    pub small_programs: usize,
    /// `many-small`: queries sampled per program.
    pub small_queries: usize,
    /// `edit-requery`: the Table-I profile whose shape the programs take.
    pub edit_profile: &'static str,
    /// `edit-requery`: programs, each primed in its own session.
    pub edit_programs: usize,
    /// `edit-requery`: single-edge edits per program and pass (each
    /// applied and reverted, so a pass makes twice as many `apply_delta`
    /// calls).
    pub edits: usize,
    /// `edit-requery`: queries re-asked after every `apply_delta`.
    pub requery: usize,
    /// Set-ups per run, all on the same inputs; `setup_s` is their
    /// median, and the last one's inputs serve the timed passes.
    pub setup_reps: usize,
    /// Worker threads of every solve.
    pub threads: usize,
}

impl Params {
    /// The benchmark's parameters, with one worker thread per CPU.
    pub fn standard() -> Params {
        Params {
            suite_profiles: 20,
            suite_variants: 3,
            small_programs: 1000,
            small_queries: 12,
            edit_profile: "luindex",
            edit_programs: 16,
            edits: 15,
            requery: 64,
            setup_reps: 5,
            threads: crate::report::nproc(),
        }
    }

    /// `(name, JSON value)` pairs for the config record.
    pub fn record(&self) -> Vec<(&'static str, String)> {
        vec![
            ("threads", self.threads.to_string()),
            ("suite_profiles", self.suite_profiles.to_string()),
            ("suite_variants", self.suite_variants.to_string()),
            ("small_programs", self.small_programs.to_string()),
            ("small_queries", self.small_queries.to_string()),
            ("edit_profile", crate::report::json_str(self.edit_profile)),
            ("edit_programs", self.edit_programs.to_string()),
            ("edits", self.edits.to_string()),
            ("requery", self.requery.to_string()),
            ("setup_reps", self.setup_reps.to_string()),
            ("mode", "\"DQ\"".into()),
            ("backend", "\"threaded\"".into()),
        ]
    }
}

/// SplitMix64: seeds and samples are derived from the run's seed with it.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Salts separating the seed streams of the different inputs.
const PROGRAM_SALT: u64 = 1 << 40;
const QUERY_SALT: u64 = 2 << 40;
const EDIT_SALT: u64 = 3 << 40;

/// `k` distinct elements of `from`, chosen by `seed` (all of them if
/// `k >= from.len()`), in ascending order.
pub fn sample(from: &[NodeId], k: usize, seed: u64) -> Vec<NodeId> {
    let mut pool = from.to_vec();
    let k = k.min(pool.len());
    for i in 0..k {
        let j = i + (mix(seed, i as u64) % (pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool.sort_unstable();
    pool
}

/// Application locals of `pag`, sorted and deduplicated: the full batch.
pub fn full_batch(pag: &Pag) -> Vec<NodeId> {
    let mut q = pag.application_locals();
    q.sort_unstable();
    q.dedup();
    q
}

/// A generated program handed to the pipeline as `.mj` text.
pub struct Source {
    /// Profile name (with an index for `many-small`).
    pub name: String,
    /// The `.mj` text.
    pub text: String,
    /// The profile's solver configuration.
    pub solver: SolverConfig,
    /// `None`: the full batch; `Some((k, seed))`: `k` sampled queries.
    pub sample: Option<(usize, u64)>,
}

fn render(profile: &Profile) -> String {
    pretty::pretty(&generate(profile))
}

/// Counters of one round, by metric key. Keys absent from a round are
/// not reported for it.
pub type Counters = BTreeMap<&'static str, f64>;

fn add(c: &mut Counters, key: &'static str, v: f64) {
    *c.entry(key).or_insert(0.0) += v;
}

fn max(c: &mut Counters, key: &'static str, v: f64) {
    let e = c.entry(key).or_insert(0.0);
    *e = e.max(v);
}

fn add_run_stats(c: &mut Counters, s: &RunStats) {
    add(c, "core.traversed_steps", s.traversed_steps as f64);
    add(c, "core.charged_steps", s.charged_steps as f64);
    add(c, "core.steps_saved", s.steps_saved as f64);
    add(c, "core.jmp_inserts", s.jmp_inserts as f64);
    add(c, "core.shortcuts_taken", s.shortcuts_taken as f64);
    add(c, "core.early_terminations", s.early_terminations as f64);
    add(c, "core.out_of_budget", s.out_of_budget as f64);
    add(c, "core.warm_hits", s.warm_hits as f64);
    max(c, "core.interner_ctxs", s.interner_ctxs as f64);
    max(c, "core.peak_state_words", s.peak_state_words as f64);
    add(
        c,
        "concurrent.lock_wait_ms",
        s.total_lock_wait().as_secs_f64() * 1e3,
    );
    let steps: Vec<f64> = s.workers.iter().map(|w| w.steps as f64).collect();
    let idle: u64 = s.workers.iter().map(|w| w.idle_spins).sum();
    add(c, "concurrent.idle_spins", idle as f64);
    if !steps.is_empty() {
        let mean = steps.iter().sum::<f64>() / steps.len() as f64;
        add(
            c,
            "worker_steps.max",
            steps.iter().copied().fold(0.0, f64::max),
        );
        add(c, "worker_steps.mean", mean);
    }
}

fn add_pag(c: &mut Counters, pag: &Pag, merged: usize, src_bytes: usize) {
    add(c, "pag.nodes", pag.node_count() as f64);
    add(c, "pag.edges", pag.edge_count() as f64);
    add(c, "pag.merged_nodes", merged as f64);
    add(c, "frontend.src_bytes", src_bytes as f64);
}

/// FNV-1a over a batch's answers: query, then either the complete answer
/// set (node and call string of every state) or an out-of-budget mark.
pub fn digest(answers: &[(NodeId, Answer)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut sorted: Vec<&(NodeId, Answer)> = answers.iter().collect();
    sorted.sort_by_key(|(q, _)| *q);
    for (q, a) in sorted {
        eat(q.index() as u64);
        match a.complete() {
            Some(states) => {
                eat(states.len() as u64);
                for (n, ctx) in states {
                    eat(n.index() as u64);
                    eat(ctx.as_slice().len() as u64);
                    for &site in ctx.as_slice() {
                        eat(u64::from(site));
                    }
                }
            }
            None => eat(u64::MAX),
        }
    }
    h
}

/// The answers of one timed unit (a program, or one `apply_delta` and
/// its requery), kept until the pass has been checked.
pub struct Unit {
    /// What the unit analysed.
    pub label: String,
    /// Which graph the answers are about.
    pub graph: Graph,
    /// The answers.
    pub answers: Vec<(NodeId, Answer)>,
    /// [`digest`] of the answers.
    pub digest: u64,
}

/// See [`Unit::graph`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Graph {
    /// Source `i` of the workload.
    Program(usize),
    /// Session program `program`, with its edit `edit` applied, or with
    /// no edit (after a revert).
    Edited {
        /// Index of the session's program.
        program: usize,
        /// The applied edit, if any.
        edit: Option<usize>,
    },
}

/// What one pass produced.
pub struct PassOut {
    /// Wall time of the pass, in seconds.
    pub wall_s: f64,
    /// Latencies in milliseconds, one per request: source to answers for
    /// a `many-small` program, `apply_delta` call to requery answers for
    /// an edit, and the whole pass for `suite-batch`.
    pub latencies_ms: Vec<f64>,
    /// Queries issued.
    pub queries: u64,
    /// Queries answered within budget.
    pub completed: u64,
    /// Per-layer counters.
    pub counters: Counters,
    /// The answers, for the check.
    pub units: Vec<Unit>,
}

/// Outcome of checking answers against the `parcfl-check` oracle.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Completed answers compared exactly with the oracle.
    pub compared: u64,
    /// Completed answers the oracle could not settle within its step cap.
    pub skipped_cap: u64,
    /// Answers that disagree with the oracle.
    pub mismatches: u64,
    /// Completed answers also checked against the Andersen solution.
    pub andersen_checked: u64,
    /// `(query, object)` pairs outside the Andersen solution.
    pub andersen_violations: u64,
    /// Units whose answers equal, digest for digest, the same unit of
    /// the first pass (which was checked in full).
    pub reused: u64,
}

impl Tally {
    fn absorb(&mut self, o: &Tally) {
        self.compared += o.compared;
        self.skipped_cap += o.skipped_cap;
        self.mismatches += o.mismatches;
        self.andersen_checked += o.andersen_checked;
        self.andersen_violations += o.andersen_violations;
        self.reused += o.reused;
    }
}

fn oracle_tally(pag: &Pag, answers: &[(NodeId, Answer)], andersen: bool) -> Tally {
    let mut oracle = OracleCache::new(pag, OracleConfig::default());
    oracle_tally_with(&mut oracle, pag, answers, andersen)
}

fn oracle_tally_with(
    oracle: &mut OracleCache<'_>,
    pag: &Pag,
    answers: &[(NodeId, Answer)],
    andersen: bool,
) -> Tally {
    let report = diff_answers(answers, oracle);
    for m in report.mismatches.iter().take(3) {
        eprintln!("oracle mismatch on query {:?}: {}", m.query, m.detail);
    }
    let mut t = Tally {
        compared: report.compared as u64,
        skipped_cap: report.skipped_cap as u64,
        mismatches: report.mismatches.len() as u64,
        ..Tally::default()
    };
    if andersen {
        let s = check_soundness(pag, answers);
        t.andersen_checked = s.completed as u64;
        t.andersen_violations = s.violations.len() as u64;
    }
    t
}

/// One measured run of a workload.
pub struct Run {
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Timed passes in order; with tracing on they alternate untraced
    /// and traced, starting untraced.
    pub passes: Vec<PassRecord>,
    /// Top-level span of each set-up (traced runs only).
    pub setup_roots: Vec<usize>,
    /// Set-up counters (pag sizes where the frontend runs in set-up).
    pub setup_counters: Counters,
    /// `VmHWM` after the first pass, before any check allocates.
    pub peak_rss_mb: f64,
    /// Check outcome over every pass.
    pub tally: Tally,
    /// Answer digests of the first pass, one per unit.
    pub digests: Vec<u64>,
    /// The benchmark's spans.
    pub tracer: Tracer,
}

/// A pass, minus the answers (dropped once checked).
pub struct PassRecord {
    /// Whether spans were recorded during the pass.
    pub traced: bool,
    /// Its top-level span, when traced.
    pub root: Option<usize>,
    /// See [`PassOut::wall_s`].
    pub wall_s: f64,
    /// See [`PassOut::latencies_ms`].
    pub latencies_ms: Vec<f64>,
    /// See [`PassOut::queries`].
    pub queries: u64,
    /// See [`PassOut::completed`].
    pub completed: u64,
    /// See [`PassOut::counters`].
    pub counters: Counters,
}

/// Runs timed passes for about `seconds` of timed work (at least one, and with
/// `trace` at least one untraced and one traced), checking each pass's
/// answers outside the timed region.
///
/// The first pass is checked unit by unit against the oracle; a unit of a
/// later pass whose answers have the same digest as that unit of the
/// first pass is known correct, any other unit is checked in full. Peak
/// RSS is read after the first pass, before any oracle allocates.
fn measure(
    tracer: &mut Tracer,
    seconds: f64,
    trace: bool,
    mut pass: impl FnMut(&mut Tracer) -> PassOut,
    mut check: impl FnMut(&Unit) -> Tally,
) -> (Vec<PassRecord>, f64, Tally, Vec<u64>) {
    let mut timed = 0.0;
    let mut records: Vec<PassRecord> = Vec::new();
    let mut tally = Tally::default();
    let mut first: Vec<u64> = Vec::new();
    let mut peak = 0.0;
    loop {
        let traced = trace && records.len() % 2 == 1;
        tracer.set_on(traced);
        let root = traced.then(|| tracer.spans().len());
        tracer.enter("pass", "");
        let out = pass(tracer);
        tracer.exit();
        tracer.set_on(false);
        if records.is_empty() {
            peak = crate::report::peak_rss_mb();
        }
        for (k, unit) in out.units.iter().enumerate() {
            if first.get(k) == Some(&unit.digest) {
                tally.reused += 1;
            } else {
                let t = check(unit);
                if t.mismatches + t.andersen_violations > 0 {
                    eprintln!("{}: answers fail the check", unit.label);
                }
                tally.absorb(&t);
            }
        }
        if records.is_empty() {
            first = out.units.iter().map(|u| u.digest).collect();
        }
        records.push(PassRecord {
            traced,
            root,
            wall_s: out.wall_s,
            latencies_ms: out.latencies_ms,
            queries: out.queries,
            completed: out.completed,
            counters: out.counters,
        });
        // Stop before a pass that would take the timed work past the
        // window (checks and set-up are outside it).
        timed += out.wall_s;
        if timed + out.wall_s > seconds && (!trace || records.len() >= 2) {
            return (records, peak, tally, first);
        }
    }
}

/// Analyses one program from source: parse → extract → collapse → query
/// selection → schedule → threaded solve on a fresh store.
fn analyse(
    src: &Source,
    threads: usize,
    tr: &mut Tracer,
    c: &mut Counters,
) -> (Vec<(NodeId, Answer)>, f64) {
    tr.enter("program", &src.name);
    let t = Instant::now();
    let program = tr
        .span("parse", || parser::parse(&src.text))
        .expect("generated programs parse");
    let ext = tr
        .span("extract", || extract::extract(&program))
        .expect("generated programs extract");
    let col = tr.span("collapse", || cycles::collapse_assign_cycles(&ext.pag));
    let queries = match src.sample {
        None => full_batch(&col.pag),
        Some((k, seed)) => sample(&full_batch(&col.pag), k, seed),
    };
    let schedule = tr.span("schedule", || {
        schedule_for(&col.pag, &queries, Mode::DataSharingSched)
    });
    let cfg = RunConfig::new(Mode::DataSharingSched, threads, Backend::Threaded)
        .with_solver(src.solver.clone());
    let result = tr.span("solve", || {
        run_threaded_batch(&col.pag, &schedule, &cfg, &SharedJmpStore::new(), 0)
    });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tr.exit();
    add_pag(c, &col.pag, col.merged_nodes, src.text.len());
    add(c, "sched.queries", schedule.query_count() as f64);
    add(c, "sched.groups", schedule.groups.len() as f64);
    add_run_stats(c, &result.stats);
    add(c, "core.store_entries", result.stats.store_entries as f64);
    (result.answers, ms)
}

/// The sources of `suite-batch` or `many-small` for `seed`.
pub fn program_sources(w: Workload, p: &Params, seed: u64) -> Vec<Source> {
    match w {
        Workload::SuiteBatch => {
            let profiles: Vec<Profile> = table1_profiles()
                .into_iter()
                .take(p.suite_profiles)
                .collect();
            let mut sources = Vec::new();
            for v in 0..p.suite_variants {
                for (i, profile) in profiles.iter().enumerate() {
                    let mut profile = profile.clone();
                    profile.seed = mix(seed, PROGRAM_SALT + (v * profiles.len() + i) as u64);
                    sources.push(Source {
                        name: format!("{}.v{v}", profile.name),
                        text: render(&profile),
                        solver: profile.solver_config(),
                        sample: None,
                    });
                }
            }
            sources
        }
        Workload::ManySmall => (0..p.small_programs)
            .map(|i| {
                let profile = Profile::small(mix(seed, PROGRAM_SALT + i as u64));
                Source {
                    name: format!("small#{i}"),
                    text: render(&profile),
                    solver: profile.solver_config(),
                    sample: Some((p.small_queries, mix(seed, QUERY_SALT + i as u64))),
                }
            })
            .collect(),
        Workload::EditRequery => panic!("edit-requery has no program list"),
    }
}

/// Runs `suite-batch` or `many-small`.
fn run_programs(w: Workload, p: &Params, seed: u64, seconds: f64, trace: bool) -> Run {
    let mut tracer = Tracer::new(trace);
    let mut setup_s = Vec::new();
    let mut setup_roots = Vec::new();
    let mut sources = Vec::new();
    for _ in 0..p.setup_reps.max(1) {
        sources.clear();
        setup_roots.push(tracer.spans().len());
        tracer.enter("setup", "");
        let t = Instant::now();
        sources = tracer.span("generate", || program_sources(w, p, seed));
        setup_s.push(t.elapsed().as_secs_f64());
        tracer.exit();
    }
    let andersen = w == Workload::SuiteBatch;
    let (passes, peak_rss_mb, tally, digests) = measure(
        &mut tracer,
        seconds,
        trace,
        |tr| {
            let mut c = Counters::new();
            let mut latencies_ms = Vec::with_capacity(sources.len());
            let mut units = Vec::with_capacity(sources.len());
            let mut wall_s = 0.0;
            for (i, src) in sources.iter().enumerate() {
                let (answers, ms) = analyse(src, p.threads, tr, &mut c);
                wall_s += ms / 1e3;
                latencies_ms.push(ms);
                units.push(Unit {
                    label: src.name.clone(),
                    graph: Graph::Program(i),
                    digest: digest(&answers),
                    answers,
                });
            }
            // A suite-batch request is the whole suite: its programs differ
            // a hundredfold in size, so quantiles over them would mostly
            // say which program a seed puts in the middle.
            if w == Workload::SuiteBatch {
                latencies_ms = vec![wall_s * 1e3];
            }
            finish_pass(wall_s, latencies_ms, c, units)
        },
        |unit| {
            let Graph::Program(i) = unit.graph else {
                unreachable!("program workloads only make program units")
            };
            let pag = reference_pag(&sources[i].text);
            oracle_tally(&pag, &unit.answers, andersen)
        },
    );
    Run {
        setup_s,
        passes,
        setup_roots: if trace { setup_roots } else { Vec::new() },
        setup_counters: Counters::new(),
        peak_rss_mb,
        tally,
        digests,
        tracer,
    }
}

/// The checker's own copy of a program's graph, built from the same text.
fn reference_pag(text: &str) -> Pag {
    parcfl_frontend::build_pag_collapsed(text)
        .expect("generated programs build")
        .pag
}

fn finish_pass(wall_s: f64, latencies_ms: Vec<f64>, c: Counters, units: Vec<Unit>) -> PassOut {
    let queries = units.iter().map(|u| u.answers.len() as u64).sum();
    let completed = units
        .iter()
        .flat_map(|u| &u.answers)
        .filter(|(_, a)| a.complete().is_some())
        .count() as u64;
    PassOut {
        wall_s,
        latencies_ms,
        queries,
        completed,
        counters: c,
        units,
    }
}

/// One program of `edit-requery`, made once per set-up.
pub struct EditProgram {
    /// The program's graph after the frontend.
    pub pag: Pag,
    /// Full batch (the prime).
    pub batch: Vec<NodeId>,
    /// Effective single-edge edits; each is reverted by its inverse.
    pub edits: Vec<DeltaOp>,
    /// Queries re-asked after edit `i` and after its revert.
    pub requeries: Vec<Vec<NodeId>>,
    /// The profile's solver configuration.
    pub solver: SolverConfig,
}

/// Program `k` of `edit-requery` for `seed`: the Table-I profile
/// `p.edit_profile` with a derived generator seed.
pub fn edit_profile(p: &Params, seed: u64, k: usize) -> Profile {
    let mut profile = table1_profiles()
        .into_iter()
        .find(|q| q.name == p.edit_profile)
        .expect("edit profile names a Table-I row");
    profile.seed = mix(seed, PROGRAM_SALT + k as u64);
    profile
}

impl EditProgram {
    /// Generates program `k`, runs the frontend and samples its edits and
    /// requery sets.
    pub fn build(p: &Params, seed: u64, k: usize, tr: &mut Tracer, c: &mut Counters) -> Self {
        let profile = edit_profile(p, seed, k);
        let text = tr.span("generate", || render(&profile));
        let program = tr
            .span("parse", || parser::parse(&text))
            .expect("generated programs parse");
        let ext = tr
            .span("extract", || extract::extract(&program))
            .expect("generated programs extract");
        let col = tr.span("collapse", || cycles::collapse_assign_cycles(&ext.pag));
        add_pag(c, &col.pag, col.merged_nodes, text.len());
        let pag = col.pag;
        let batch = full_batch(&pag);
        let edit_seed = mix(seed, EDIT_SALT + k as u64);
        let edits = tr.span("sample_edits", || effective_edits(&pag, edit_seed, p.edits));
        let requeries = (0..edits.len())
            .map(|i| sample(&batch, p.requery, mix(edit_seed, QUERY_SALT + i as u64)))
            .collect();
        EditProgram {
            pag,
            batch,
            edits,
            requeries,
            solver: profile.solver_config(),
        }
    }

    /// A session over the graph, primed with the full batch.
    pub fn prime(&self, threads: usize, tr: &mut Tracer) -> AnalysisSession<'_> {
        let mut session = AnalysisSession::new(&self.pag)
            .with_threads(threads)
            .with_solver(self.solver.clone());
        tr.span("prime", || {
            session.submit(&self.batch, Mode::DataSharingSched, Backend::Threaded)
        });
        session
    }
}

/// `count` single-edge edits of `pag` that each change it: additions of
/// absent edges and removals of present ones, one `sample_edits` draw
/// per seed until enough are found.
pub fn effective_edits(pag: &Pag, seed: u64, count: usize) -> Vec<DeltaOp> {
    let present: HashSet<_> = pag.edges().iter().copied().collect();
    let mut out = Vec::with_capacity(count);
    for k in 0..count as u64 * 64 {
        if out.len() == count {
            break;
        }
        for op in sample_edits(pag, mix(seed, k), 1) {
            let effective = match op {
                DeltaOp::AddEdge(e) => !present.contains(&e),
                DeltaOp::RemoveEdge(e) => present.contains(&e),
            };
            if effective {
                out.push(op);
            }
        }
    }
    out
}

fn one_op(op: DeltaOp) -> PagDelta {
    let mut d = PagDelta::new();
    d.push(op);
    d
}

fn inverse(op: DeltaOp) -> DeltaOp {
    match op {
        DeltaOp::AddEdge(e) => DeltaOp::RemoveEdge(e),
        DeltaOp::RemoveEdge(e) => DeltaOp::AddEdge(e),
    }
}

fn add_delta(c: &mut Counters, r: &DeltaReport) {
    add(c, "core.invalidated_jmps", r.invalidated_jmps as f64);
    add(c, "core.retained_jmps", r.retained_jmps as f64);
    add(
        c,
        "sched.invalidated_schedules",
        r.invalidated_schedules as f64,
    );
}

/// Makes every `edit-requery` program; the caller primes the sessions.
fn set_up_edits(p: &Params, seed: u64, tr: &mut Tracer, c: &mut Counters) -> Vec<EditProgram> {
    (0..p.edit_programs)
        .map(|k| EditProgram::build(p, seed, k, tr, c))
        .collect()
}

/// Runs `edit-requery`.
fn run_edits(p: &Params, seed: u64, seconds: f64, trace: bool) -> Run {
    let mut tracer = Tracer::new(trace);
    let mut setup_s = Vec::new();
    let mut setup_roots = Vec::new();
    for _ in 1..p.setup_reps.max(1) {
        setup_roots.push(tracer.spans().len());
        tracer.enter("setup", "");
        let t = Instant::now();
        let programs = set_up_edits(p, seed, &mut tracer, &mut Counters::new());
        for prog in &programs {
            drop(prog.prime(p.threads, &mut tracer));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        tracer.exit();
    }
    // The last set-up's sessions serve the timed passes.
    setup_roots.push(tracer.spans().len());
    tracer.enter("setup", "");
    let t = Instant::now();
    let mut setup_counters = Counters::new();
    let programs = set_up_edits(p, seed, &mut tracer, &mut setup_counters);
    let mut sessions: Vec<AnalysisSession<'_>> = programs
        .iter()
        .map(|prog| prog.prime(p.threads, &mut tracer))
        .collect();
    setup_s.push(t.elapsed().as_secs_f64());
    tracer.exit();

    let mut base_oracles: Vec<OracleCache<'_>> = programs
        .iter()
        .map(|prog| OracleCache::new(&prog.pag, OracleConfig::default()))
        .collect();
    let (passes, peak_rss_mb, tally, digests) = measure(
        &mut tracer,
        seconds,
        trace,
        |tr| {
            let mut c = Counters::new();
            let mut latencies_ms = Vec::new();
            let mut units = Vec::new();
            let mut wall_s = 0.0;
            // Round-robin over the sessions: edit i of every program, then
            // edit i + 1.
            for i in 0..p.edits {
                for (k, (prog, session)) in programs.iter().zip(&mut sessions).enumerate() {
                    let (Some(&op), Some(queries)) = (prog.edits.get(i), prog.requeries.get(i))
                    else {
                        continue;
                    };
                    for (op, edit) in [(op, Some(i)), (inverse(op), None)] {
                        let delta = one_op(op);
                        tr.enter("edit", "");
                        let t = Instant::now();
                        let report = tr.span("apply_delta", || session.apply_delta(&delta));
                        let result = tr.span("requery", || {
                            session.submit(queries, Mode::DataSharingSched, Backend::Threaded)
                        });
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        tr.exit();
                        wall_s += ms / 1e3;
                        latencies_ms.push(ms);
                        add_delta(&mut c, &report);
                        add(&mut c, "sched.queries", queries.len() as f64);
                        add(
                            &mut c,
                            "sched.groups",
                            (queries.len() as f64 / result.stats.avg_group_size.max(1.0)).round(),
                        );
                        add_run_stats(&mut c, &result.stats);
                        units.push(Unit {
                            label: format!("program{k}.edit{i}"),
                            graph: Graph::Edited { program: k, edit },
                            digest: digest(&result.answers),
                            answers: result.answers,
                        });
                    }
                }
            }
            for session in &sessions {
                add(&mut c, "core.store_entries", session.store_entries() as f64);
            }
            finish_pass(wall_s, latencies_ms, c, units)
        },
        |unit| match unit.graph {
            Graph::Edited {
                program,
                edit: None,
            } => oracle_tally_with(
                &mut base_oracles[program],
                &programs[program].pag,
                &unit.answers,
                false,
            ),
            Graph::Edited {
                program,
                edit: Some(i),
            } => {
                let prog = &programs[program];
                let (edited, _) = prog.pag.apply_delta(&one_op(prog.edits[i]));
                oracle_tally(&edited, &unit.answers, false)
            }
            Graph::Program(_) => unreachable!("edit-requery only makes edit units"),
        },
    );
    drop(sessions);
    Run {
        setup_s,
        passes,
        setup_roots: if trace { setup_roots } else { Vec::new() },
        setup_counters,
        peak_rss_mb,
        tally,
        digests,
        tracer,
    }
}

/// Runs workload `w` for `seconds` of timed passes, with the benchmark's
/// spans recorded on alternate passes when `trace` is set.
pub fn run(w: Workload, p: &Params, seed: u64, seconds: f64, trace: bool) -> Run {
    match w {
        Workload::SuiteBatch | Workload::ManySmall => run_programs(w, p, seed, seconds, trace),
        Workload::EditRequery => run_edits(p, seed, seconds, trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_seeded_and_distinct() {
        let from: Vec<NodeId> = (0..50).map(NodeId::from_usize).collect();
        let a = sample(&from, 12, 7);
        assert_eq!(a, sample(&from, 12, 7));
        assert_ne!(a, sample(&from, 12, 8));
        let mut d = a.clone();
        d.dedup();
        assert_eq!(d.len(), 12);
        assert_eq!(sample(&from, 99, 1), from);
    }

    #[test]
    fn edits_change_the_graph_and_reverts_restore_it() {
        let p = Params::standard();
        let profile = Profile::small(3);
        let pag = reference_pag(&render(&profile));
        let edits = effective_edits(&pag, 5, 10);
        assert_eq!(edits.len(), 10);
        for op in edits {
            let (edited, effect) = pag.apply_delta(&one_op(op));
            assert!(!effect.is_noop());
            let (back, _) = edited.apply_delta(&one_op(inverse(op)));
            let mut want = pag.edges().to_vec();
            let mut got = back.edges().to_vec();
            want.sort_by_key(|e| (e.src, e.dst, format!("{:?}", e.kind)));
            got.sort_by_key(|e| (e.src, e.dst, format!("{:?}", e.kind)));
            assert_eq!(got, want);
        }
        assert_eq!(edit_profile(&p, 1, 0).name, p.edit_profile);
    }
}
