//! The real-thread backend: `t` OS worker threads answer query groups
//! against the shared read-only PAG, publishing jmp edges into the shared
//! concurrent store. Two dispatch disciplines are available:
//!
//! * the paper-faithful **mutex work list** (Section III-A): one
//!   lock-protected shared queue every worker hits on every fetch — the
//!   baseline, and the known scalability ceiling;
//! * the **work-stealing scheduler** ([`RunConfig::stealing`]): per-worker
//!   deques seeded round-robin with the schedule's groups, LIFO local
//!   pops, steal-half from rotating victims, idle-count/final-sweep
//!   termination (see `parcfl_concurrent::stealing`).
//!
//! Either way the answers are identical — dispatch order affects cost,
//! never results — and every worker leaves a [`WorkerObs`] record (pops,
//! steals, idle spins, lock/steal wait, queries, steps) in
//! [`RunStats::workers`], so contention is measured rather than guessed.
//!
//! This is the production implementation — correct on any core count.
//! (Wall-clock speedups require real cores; the evaluation harness uses the
//! simulated backend for speedup *shapes* on this single-core machine, see
//! DESIGN.md.)

use crate::mode::RunConfig;
use crate::schedule_with_cap;
use crate::stats::{RunResult, RunStats};
use parcfl_concurrent::{SharedWorkList, StealQueues, WorkerObs};
use parcfl_core::{Answer, JmpStore, SharedJmpStore, Solver, SolverConfig};
use parcfl_obs::{EventKind, RunTrace, TraceLevel, TraceRecorder, WorkerTrace};
use parcfl_pag::{NodeId, Pag};
use parcfl_sched::Schedule;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// Worker stack size: the solver's mutual recursion can be deep on heap-
/// heavy programs (bounded by `max_recursion_depth`, but each frame holds
/// hash sets).
const WORKER_STACK: usize = 64 * 1024 * 1024;

/// Runs the configured analysis on real threads.
pub fn run_threaded(pag: &Pag, queries: &[NodeId], cfg: &RunConfig) -> RunResult {
    let store = SharedJmpStore::new();
    let schedule = schedule_with_cap(pag, queries, cfg.mode, cfg.group_cap);
    run_threaded_batch(pag, &schedule, cfg, &store, 0)
}

/// What one worker thread hands back when it joins.
type WorkerYield = (Vec<(NodeId, Answer)>, RunStats, WorkerObs, WorkerTrace);

/// What [`run_workers`] hands back after the join: all answers, the merged
/// stats, and the per-worker observability records and event traces in
/// worker-index order.
type JoinedWorkers = (
    Vec<(NodeId, Answer)>,
    RunStats,
    Vec<WorkerObs>,
    Vec<WorkerTrace>,
);

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The per-worker query loop, shared by both dispatch disciplines:
/// `fetch` yields the next group (recording its costs into the worker's
/// observability record) until the batch is drained.
///
/// A panic inside a query (budget-burn bugs, recursion-depth blowouts,
/// malformed query ids) would otherwise surface as an opaque
/// `std::thread::scope` abort; it is caught here and re-raised with the
/// worker index, the offending query and its group attached, so crashes
/// are diagnosable from the message alone.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    pag: &Pag,
    solver_cfg: &SolverConfig,
    store: &SharedJmpStore,
    base: u64,
    worker: usize,
    tracing: TraceLevel,
    epoch: Instant,
    mut fetch: impl FnMut(&mut WorkerObs, &TraceRecorder) -> Option<Vec<NodeId>>,
    on_panic: impl Fn(),
) -> WorkerYield {
    // Per-worker eviction scope: this worker's publishes attribute their
    // evictions here, so the batch total is an exact partition over the
    // worker partials (`RunStats::merge` sums them).
    let wstore = store.scoped();
    let rec = TraceRecorder::real(tracing, epoch);
    let mut stats = RunStats::default();
    let mut answers = Vec::new();
    let mut obs = WorkerObs::new(worker);
    let mut ev_prev = 0u64;
    {
        let mut solver = Solver::new(pag, solver_cfg, &wstore);
        if tracing.full() {
            solver = solver.with_recorder(&rec);
        }
        let mut lock_wait_prev = 0u64;
        let mut steal_wait_prev = 0u64;
        while let Some(group) = fetch(&mut obs, &rec) {
            // Fetch-path contention, sampled per fetch from the obs deltas
            // the schedulers maintain.
            if obs.lock_wait_ns > lock_wait_prev {
                stats
                    .hists
                    .lock_wait
                    .record(obs.lock_wait_ns - lock_wait_prev);
                lock_wait_prev = obs.lock_wait_ns;
            }
            if obs.steal_wait_ns > steal_wait_prev {
                stats
                    .hists
                    .steal_wait
                    .record(obs.steal_wait_ns - steal_wait_prev);
                steal_wait_prev = obs.steal_wait_ns;
            }
            rec.span(EventKind::GroupDequeued, 0, group.len() as u32, 0);
            let group_t0 = Instant::now();
            for &q in &group {
                rec.span(EventKind::QueryStart, 0, q.raw(), 0);
                let t0 = Instant::now();
                let attempt =
                    std::panic::catch_unwind(AssertUnwindSafe(|| solver.points_to_query(q, base)));
                let out = match attempt {
                    Ok(out) => out,
                    Err(payload) => {
                        // Release the peers first (a dead worker can never
                        // satisfy the stealing termination protocol), then
                        // re-raise with the context attached.
                        on_panic();
                        std::panic::panic_any(format!(
                            "worker {worker} panicked answering query {q:?} of group {group:?}: {}",
                            panic_message(payload.as_ref())
                        ))
                    }
                };
                stats
                    .hists
                    .query_latency
                    .record(t0.elapsed().as_nanos() as u64);
                let complete = matches!(out.answer, Answer::Complete(_));
                rec.span(EventKind::QueryEnd, 0, q.raw(), complete as u32);
                if tracing.full() {
                    let ev_now = wstore.scope_evictions();
                    if ev_now > ev_prev {
                        rec.instant(EventKind::Eviction, 0, (ev_now - ev_prev) as u32, 0);
                        ev_prev = ev_now;
                    }
                }
                obs.queries += 1;
                obs.steps += out.stats.traversed_steps;
                stats.absorb(&out.stats, &out.answer);
                answers.push((q, out.answer));
            }
            stats
                .hists
                .group_makespan
                .record(group_t0.elapsed().as_nanos() as u64);
        }
    }
    stats.evictions = wstore.scope_evictions();
    (answers, stats, obs, rec.into_trace(worker))
}

/// Spawns `threads` workers running `make_fetch(worker)`-driven loops and
/// joins them, re-raising any (context-enriched) worker panic.
#[allow(clippy::too_many_arguments)]
fn run_workers<F, G, P>(
    pag: &Pag,
    solver_cfg: &SolverConfig,
    store: &SharedJmpStore,
    base: u64,
    threads: usize,
    query_capacity: usize,
    tracing: TraceLevel,
    epoch: Instant,
    make_fetch: G,
    on_panic: P,
) -> JoinedWorkers
where
    F: FnMut(&mut WorkerObs, &TraceRecorder) -> Option<Vec<NodeId>> + Send,
    G: Fn(usize) -> F + Sync,
    P: Fn() + Sync,
{
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for w in 0..threads {
            let make_fetch = &make_fetch;
            let on_panic = &on_panic;
            let handle = std::thread::Builder::new()
                .stack_size(WORKER_STACK)
                .spawn_scoped(scope, move || {
                    worker_loop(
                        pag,
                        solver_cfg,
                        store,
                        base,
                        w,
                        tracing,
                        epoch,
                        make_fetch(w),
                        on_panic,
                    )
                })
                .expect("spawn worker");
            handles.push(handle);
        }
        let mut answers = Vec::with_capacity(query_capacity);
        let mut stats = RunStats::default();
        let mut workers = Vec::with_capacity(threads);
        let mut traces = Vec::with_capacity(threads);
        for h in handles {
            match h.join() {
                Ok((a, s, o, t)) => {
                    answers.extend(a);
                    stats.merge(&s);
                    workers.push(o);
                    traces.push(t);
                }
                // The payload already carries worker/query/group context
                // (see `worker_loop`); re-raise it instead of the opaque
                // "a scoped thread panicked".
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        (answers, stats, workers, traces)
    })
}

/// One real-thread batch against a caller-owned (possibly warm) store.
///
/// The session building block. `store` should be an untimestamped handle
/// ([`SharedJmpStore::untimestamped_view`] of the session's master): real
/// threads must see every entry immediately, whatever its timestamp.
/// Workers stamp new publications with `base`, so entries survive into the
/// next batch with a creation time below its warm floor, and hits on
/// entries stamped `< base` count as warm hits. `makespan` is the batch's
/// own traversed-step total (real time is measured by `wall`).
///
/// Eviction accounting is scoped per batch ([`SharedJmpStore::scoped`]):
/// `stats.evictions` counts only evictions *this batch's* publishes
/// triggered, even when other sessions or an external `evict_to_budget`
/// hammer the same store concurrently.
pub fn run_threaded_batch(
    pag: &Pag,
    schedule: &Schedule,
    cfg: &RunConfig,
    store: &SharedJmpStore,
    base: u64,
) -> RunResult {
    let solver_cfg = cfg.effective_solver().with_warm_floor(base);
    let store = store.scoped();
    let threads = cfg.threads.max(1);
    let start = std::time::Instant::now();

    let (answers, mut stats, workers, traces) = if cfg.stealing {
        let queues: StealQueues<Vec<NodeId>> = StealQueues::new(schedule.seed_round_robin(threads));
        let queues = &queues;
        run_workers(
            pag,
            &solver_cfg,
            &store,
            base,
            threads,
            schedule.query_count(),
            cfg.tracing,
            start,
            |w| move |obs: &mut WorkerObs, rec: &TraceRecorder| queues.next_traced(w, obs, rec),
            || queues.abort(),
        )
    } else {
        let work: SharedWorkList<Vec<NodeId>> =
            SharedWorkList::with_items(schedule.groups.iter().cloned());
        let work = &work;
        run_workers(
            pag,
            &solver_cfg,
            &store,
            base,
            threads,
            schedule.query_count(),
            cfg.tracing,
            start,
            |_w| {
                move |obs: &mut WorkerObs, _rec: &TraceRecorder| {
                    let (group, wait) = work.pop_timed();
                    obs.lock_wait_ns += wait;
                    if group.is_some() {
                        obs.local_pops += 1;
                    }
                    group
                }
            },
            // Mutex pops never block on peers: no abort needed.
            || {},
        )
    };

    stats.wall = start.elapsed();
    stats.makespan = stats.traversed_steps; // real time is measured by `wall`
    stats.batches = 1;
    // `stats.evictions` was summed from the per-worker scopes during the
    // merge of worker partials — an exact partition of the batch's own
    // eviction traffic.
    stats.store_entries = store.entry_count();
    stats.jmp_edges = store.stats().total_edges();
    stats.jmp_bytes = store.approx_bytes();
    stats.avg_group_size = schedule.avg_group_size;
    stats.interner_ctxs = store.interner().len();
    stats.workers = workers;
    let trace = cfg.tracing.enabled().then_some(RunTrace {
        real_time: true,
        workers: traces,
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
    use crate::mode::{Backend, Mode};
    use crate::seq::run_seq;
    use parcfl_core::SolverConfig;
    use parcfl_frontend::build_pag;

    const SRC: &str = "class Obj { }
        class Box { field f: Obj; }
        class A {
          method mk(): Box {
            var b: Box; var v: Obj;
            b = new Box;
            v = new Obj;
            b.f = v;
            return b;
          }
          method m() {
            var p: Box; var q: Box; var x: Obj; var y: Obj;
            p = call this.mk();
            q = call this.mk();
            x = p.f;
            y = q.f;
          }
        }";

    #[test]
    fn threaded_matches_sequential_answers() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let seq = run_seq(&pag, &queries, &SolverConfig::default());
        for mode in [Mode::Naive, Mode::DataSharing, Mode::DataSharingSched] {
            for threads in [1, 4] {
                for stealing in [false, true] {
                    let cfg =
                        RunConfig::new(mode, threads, Backend::Threaded).with_stealing(stealing);
                    let par = run_threaded(&pag, &queries, &cfg);
                    assert_eq!(par.stats.queries, queries.len());
                    assert_eq!(
                        par.sorted_answers(),
                        seq.sorted_answers(),
                        "{mode:?} x{threads} stealing={stealing} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn sharing_mode_populates_store() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let mut cfg = RunConfig::new(Mode::DataSharing, 2, Backend::Threaded);
        cfg.solver = SolverConfig::default().without_tau_thresholds();
        let r = run_threaded(&pag, &queries, &cfg);
        assert!(r.stats.jmp_edges > 0, "sharing must record jmp edges");
        assert!(r.stats.jmp_bytes > 0);
        // Naive mode records nothing.
        let naive = run_threaded(
            &pag,
            &queries,
            &RunConfig::new(Mode::Naive, 2, Backend::Threaded),
        );
        assert_eq!(naive.stats.jmp_edges, 0);
    }

    #[test]
    fn worker_records_account_for_every_query_and_fetch() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        for stealing in [false, true] {
            let cfg = RunConfig::new(Mode::DataSharingSched, 3, Backend::Threaded)
                .with_stealing(stealing);
            let schedule = schedule_with_cap(&pag, &queries, cfg.mode, cfg.group_cap);
            let r = run_threaded(&pag, &queries, &cfg);
            assert_eq!(r.stats.workers.len(), 3);
            let totals = r.stats.obs_totals();
            assert_eq!(totals.queries as usize, queries.len());
            assert_eq!(totals.steps, r.stats.traversed_steps);
            // Every group is fetched exactly once: either a local pop or
            // the in-hand item of a successful steal.
            assert_eq!(
                totals.local_pops + if stealing { totals.steals_succeeded } else { 0 },
                schedule.groups.len() as u64,
                "stealing={stealing}"
            );
        }
    }

    #[test]
    fn worker_panic_carries_query_context() {
        let pag = build_pag(SRC).unwrap().pag;
        let mut queries = pag.application_locals();
        // A query id no node backs: the solver's node lookup panics deep
        // inside a worker. The batch must re-raise with context, not abort
        // the scope opaquely.
        let bogus = parcfl_pag::NodeId::new(u32::MAX - 1);
        queries.push(bogus);
        for stealing in [false, true] {
            let cfg = RunConfig::new(Mode::Naive, 2, Backend::Threaded).with_stealing(stealing);
            let caught =
                std::panic::catch_unwind(AssertUnwindSafe(|| run_threaded(&pag, &queries, &cfg)))
                    .expect_err("bogus query must panic");
            let msg = caught
                .downcast_ref::<String>()
                .expect("enriched payload is a String");
            assert!(
                msg.contains("worker") && msg.contains("panicked answering query"),
                "stealing={stealing}: missing context in {msg:?}"
            );
            assert!(msg.contains("group"), "group attached: {msg:?}");
        }
    }
}
