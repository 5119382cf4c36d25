//! `SeqCFL` — the sequential baseline: Algorithm 1 (no sharing, no
//! scheduling), queries processed in input order.

use crate::stats::{RunResult, RunStats};
use parcfl_core::{Answer, JmpStore, NoJmpStore, Solver, SolverConfig};
use parcfl_obs::{EventKind, RunTrace, TraceLevel, TraceRecorder};
use parcfl_pag::{NodeId, Pag};

/// Runs every query sequentially with data sharing disabled.
pub fn run_seq(pag: &Pag, queries: &[NodeId], solver_cfg: &SolverConfig) -> RunResult {
    let mut cfg = solver_cfg.clone();
    cfg.data_sharing = false;
    run_seq_with_store(pag, queries, &cfg, &NoJmpStore, 0)
}

/// Sequential execution against a caller-owned jmp store.
///
/// The session building block for single-threaded batches: unlike
/// [`run_seq`] it honours `solver_cfg.data_sharing`, so a warm store from
/// earlier batches is consulted and extended. New publications are
/// stamped `base`; hits on entries stamped `< base` count as warm hits.
pub fn run_seq_with_store(
    pag: &Pag,
    queries: &[NodeId],
    solver_cfg: &SolverConfig,
    store: &dyn JmpStore,
    base: u64,
) -> RunResult {
    run_seq_traced(pag, queries, solver_cfg, store, base, TraceLevel::Off)
}

/// [`run_seq_with_store`] with event tracing: the single worker records a
/// wall-clock `QueryStart`/`QueryEnd` timeline (track 0) and, at
/// [`TraceLevel::Full`], the solver's hot-path instants. Answers and step
/// counts are identical at every level.
pub fn run_seq_traced(
    pag: &Pag,
    queries: &[NodeId],
    solver_cfg: &SolverConfig,
    store: &dyn JmpStore,
    base: u64,
    tracing: TraceLevel,
) -> RunResult {
    let cfg = solver_cfg.clone().with_warm_floor(base);
    let evictions_before = store.stats().evictions;

    let start = std::time::Instant::now();
    let rec = TraceRecorder::real(tracing, start);
    let mut stats = RunStats::default();
    let mut answers = Vec::with_capacity(queries.len());
    let interner_ctxs;
    {
        let mut solver = Solver::new(pag, &cfg, store);
        if tracing.full() {
            solver = solver.with_recorder(&rec);
        }
        for &q in queries {
            rec.span(EventKind::QueryStart, 0, q.raw(), 0);
            let t0 = std::time::Instant::now();
            let out = solver.points_to_query(q, base);
            stats
                .hists
                .query_latency
                .record(t0.elapsed().as_nanos() as u64);
            let complete = matches!(out.answer, Answer::Complete(_));
            rec.span(EventKind::QueryEnd, 0, q.raw(), complete as u32);
            stats.absorb(&out.stats, &out.answer);
            answers.push((q, out.answer));
        }
        interner_ctxs = solver.interner().len();
    }
    stats.wall = start.elapsed();
    // Sequential virtual time is simply the total traversed work.
    stats.makespan = stats.traversed_steps;
    stats.batches = 1;
    stats.evictions = store.stats().evictions - evictions_before;
    stats.store_entries = store.entry_count();
    stats.jmp_edges = store.stats().total_edges();
    stats.jmp_bytes = store.approx_bytes();
    stats.avg_group_size = 1.0;
    stats.interner_ctxs = interner_ctxs;
    let trace = tracing.enabled().then(|| RunTrace {
        real_time: true,
        workers: vec![rec.into_trace(0)],
    });
    RunResult {
        answers,
        stats,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcfl_frontend::build_pag;

    #[test]
    fn seq_answers_every_query() {
        let src = "class Obj { }
                   class A { method m() {
                     var a: Obj; var b: Obj;
                     a = new Obj; b = a;
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let queries = pag.application_locals();
        let r = run_seq(&pag, &queries, &SolverConfig::default());
        assert_eq!(r.stats.queries, queries.len());
        assert_eq!(r.stats.completed, queries.len());
        assert_eq!(r.answers.len(), queries.len());
        assert_eq!(r.stats.makespan, r.stats.traversed_steps);
        assert!(r.stats.steps_saved == 0, "no sharing in SeqCFL");
    }

    #[test]
    fn seq_force_disables_sharing() {
        let src = "class Obj { }
                   class A { method m() { var a: Obj; a = new Obj; } }";
        let pag = build_pag(src).unwrap().pag;
        let cfg = SolverConfig::default().with_data_sharing();
        let r = run_seq(&pag, &pag.application_locals(), &cfg);
        assert_eq!(r.stats.shortcuts_taken, 0);
    }
}
