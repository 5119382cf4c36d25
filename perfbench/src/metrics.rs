//! From a [`Run`] to the named metrics of `BENCHMARK.json`.
//!
//! End-to-end metrics come from untraced passes. Per-layer metrics come
//! from traced rounds (set-ups and traced passes): the self time of the
//! benchmark's spans around each layer call, and the counters that the
//! calls return (`RunResult.stats`, `DeltaReport`). Each is the median
//! over the traced rounds in which the layer ran.

use crate::report::{median, quantile, ratio, Metric};
use crate::trace::{self_ms_by_name, self_times_ns, Span};
use crate::workload::{Counters, Run};
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("answers_per_s", "1/s"),
    ("answered_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("latency_ms_p50", "ms"),
];

/// End-to-end metrics that are printed but left out of `BENCHMARK.json`
/// and the result line. On the 2-CPU host the benchmark was tuned on,
/// `latency_ms_p95` of `edit-requery` spread by 21% to 35% of its median
/// over ten seeds, more than any bound the benchmark may set.
pub const UNGATED: [(&str, &str); 1] = [("latency_ms_p95", "ms")];

/// Whether `name` is listed in `BENCHMARK.json`.
pub fn is_listed(name: &str) -> bool {
    END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name)
}

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("frontend.parse_ms", "ms"),
    ("frontend.extract_ms", "ms"),
    ("frontend.collapse_ms", "ms"),
    ("frontend.src_mb_per_s", "MB/s"),
    ("pag.nodes", "count"),
    ("pag.edges", "count"),
    ("pag.merged_nodes", "count"),
    ("sched.schedule_ms", "ms"),
    ("sched.avg_group_size", "count"),
    ("sched.invalidated_schedules", "count"),
    ("runtime.solve_ms", "ms"),
    ("runtime.prime_ms", "ms"),
    ("runtime.apply_delta_ms", "ms"),
    ("runtime.requery_ms", "ms"),
    ("core.traversed_steps", "count"),
    ("core.charged_steps", "count"),
    ("core.steps_saved", "count"),
    ("core.jmp_inserts", "count"),
    ("core.shortcuts_taken", "count"),
    ("core.shortcut_yield", "ratio"),
    ("core.ns_per_step", "ns"),
    ("core.early_terminations", "count"),
    ("core.out_of_budget", "count"),
    ("core.interner_ctxs", "count"),
    ("core.peak_state_words", "count"),
    ("core.warm_hits", "count"),
    ("core.invalidated_jmps", "count"),
    ("core.retained_jmps", "count"),
    ("core.retention", "ratio"),
    ("core.store_entries", "count"),
    ("concurrent.lock_wait_ms", "ms"),
    ("concurrent.idle_spins", "count"),
    ("concurrent.step_imbalance", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_ms", "ms"),
];

/// Counters that repeat exactly on a repeat run of one seed: graph sizes
/// and schedule shapes. Every other counter depends on how the worker
/// threads interleave (which query publishes a jmp edge first), and every
/// time is noisy.
pub const EXACT: [&str; 7] = [
    "pag.nodes",
    "pag.edges",
    "pag.merged_nodes",
    "sched.queries",
    "sched.groups",
    "sched.avg_group_size",
    "sched.invalidated_schedules",
];

/// Spans that wrap a layer call, and the metric their self time feeds.
const LAYER_SPANS: [(&str, &str); 8] = [
    ("parse", "frontend.parse_ms"),
    ("extract", "frontend.extract_ms"),
    ("collapse", "frontend.collapse_ms"),
    ("schedule", "sched.schedule_ms"),
    ("solve", "runtime.solve_ms"),
    ("prime", "runtime.prime_ms"),
    ("apply_delta", "runtime.apply_delta_ms"),
    ("requery", "runtime.requery_ms"),
];

/// Spans that only group others; their self time is the part of a pass
/// or set-up that no layer span covers.
const STRUCTURAL_SPANS: [&str; 4] = ["pass", "program", "edit", "setup"];

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let walls: Vec<f64> = run.passes.iter().map(|p| p.wall_s).collect();
    let rates: Vec<f64> = run
        .passes
        .iter()
        .map(|p| ratio(p.completed as f64, p.wall_s))
        .collect();
    let latencies = unit_latencies(run);
    let (queries, completed) = totals(run);
    let values = [
        median(&run.setup_s),
        median(&walls),
        median(&rates),
        ratio(
            completed as f64 - run.tally.mismatches as f64,
            queries as f64,
        ),
        run.peak_rss_mb,
        quantile(&latencies, 0.5),
        quantile(&latencies, 0.95),
    ];
    END_TO_END
        .iter()
        .chain(&UNGATED)
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            unit,
            value,
            exact: false,
        })
        .collect()
}

/// Each request's median latency over the timed passes: requests are the
/// same programs or edits in the same order on every pass.
fn unit_latencies(run: &Run) -> Vec<f64> {
    let units = run.passes.first().map_or(0, |p| p.latencies_ms.len());
    (0..units)
        .map(|k| {
            let v: Vec<f64> = run.passes.iter().map(|p| p.latencies_ms[k]).collect();
            median(&v)
        })
        .collect()
}

/// Queries issued and answered within budget, over every timed pass.
pub fn totals(run: &Run) -> (u64, u64) {
    let queries = run.passes.iter().map(|p| p.queries).sum();
    let completed = run.passes.iter().map(|p| p.completed).sum();
    (queries, completed)
}

/// Per-layer metrics of one traced round, from its spans' self times and
/// its counters. Only layers that ran in the round appear.
fn round_metrics(ms: &BTreeMap<&str, f64>, c: &Counters) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (span, metric) in LAYER_SPANS {
        if let Some(&v) = ms.get(span) {
            out.insert(metric, v);
        }
    }
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    for &(name, _) in &PER_LAYER {
        if let Some(&v) = c.get(name) {
            out.insert(name, v);
        }
    }
    if let (Some(p), Some(bytes)) = (ms.get("parse"), c.get("frontend.src_bytes")) {
        let secs =
            (p + ms.get("extract").unwrap_or(&0.0) + ms.get("collapse").unwrap_or(&0.0)) / 1e3;
        out.insert("frontend.src_mb_per_s", ratio(bytes / 1e6, secs));
    }
    if c.contains_key("sched.groups") {
        out.insert(
            "sched.avg_group_size",
            ratio(get("sched.queries"), get("sched.groups")),
        );
    }
    if c.contains_key("core.traversed_steps") {
        let solve_ms = ms.get("solve").or(ms.get("requery")).unwrap_or(&0.0);
        out.insert(
            "core.shortcut_yield",
            ratio(get("core.shortcuts_taken"), get("core.jmp_inserts")),
        );
        out.insert(
            "core.ns_per_step",
            ratio(solve_ms * 1e6, get("core.traversed_steps")),
        );
        out.insert(
            "concurrent.step_imbalance",
            ratio(get("worker_steps.max"), get("worker_steps.mean")),
        );
    }
    if c.contains_key("core.retained_jmps") {
        let kept = get("core.retained_jmps");
        out.insert(
            "core.retention",
            ratio(kept, kept + get("core.invalidated_jmps")),
        );
    }
    out
}

/// Self time of the structural spans under `root`: the uncovered part.
fn uncovered_ms(spans: &[Span], root: usize) -> f64 {
    let by = self_ms_by_name(spans, root);
    STRUCTURAL_SPANS.iter().filter_map(|s| by.get(s)).sum()
}

/// The per-layer metrics of a traced run (0 for a layer the workload
/// never runs).
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let spans = run.tracer.spans();
    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    for &root in &run.setup_roots {
        rounds.push(round_metrics(
            &self_ms_by_name(spans, root),
            &run.setup_counters,
        ));
    }
    let traced: Vec<_> = run.passes.iter().filter(|p| p.traced).collect();
    for pass in &traced {
        let root = pass.root.expect("traced passes have a root span");
        let mut m = round_metrics(&self_ms_by_name(spans, root), &pass.counters);
        m.insert("trace.uncovered_ms", uncovered_ms(spans, root));
        rounds.push(m);
    }
    let wall = |t: bool| {
        let w: Vec<f64> = run
            .passes
            .iter()
            .filter(|p| p.traced == t)
            .map(|p| p.wall_s)
            .collect();
        median(&w)
    };
    let (traced_wall, untraced_wall) = (wall(true), wall(false));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.wall_s" => traced_wall,
                "trace.untraced_wall_s" => untraced_wall,
                "trace.overhead_s" => traced_wall - untraced_wall,
                _ => {
                    let seen: Vec<f64> =
                        rounds.iter().filter_map(|r| r.get(name).copied()).collect();
                    median(&seen)
                }
            };
            Metric {
                name: name.to_string(),
                unit,
                value,
                exact: EXACT.contains(&name),
            }
        })
        .collect()
}

/// Self-time tables of the median traced pass and of the last traced
/// set-up: one row per layer span and one for the uncovered remainder,
/// each against the wall of the span they sit in.
pub fn layer_table(run: &Run) -> String {
    let spans = run.tracer.spans();
    let mut out = String::new();
    if let Some(pass) = median_traced_pass(run) {
        let root = pass.root.expect("traced passes have a root span");
        let title = format!("median traced pass ({:.1} ms timed)", pass.wall_s * 1e3);
        out.push_str(&self_time_table(spans, root, &title));
    }
    if let Some(&root) = run.setup_roots.last() {
        out.push_str(&self_time_table(spans, root, "last set-up"));
    }
    out
}

fn self_time_table(spans: &[Span], root: usize, title: &str) -> String {
    let by = self_ms_by_name(spans, root);
    let wall_ms = spans[root].dur_ns() as f64 / 1e6;
    let mut out = format!(
        "layer self time, {title}: {wall_ms:.1} ms span\n{:<14} {:>12} {:>8}\n",
        "span", "self_ms", "share"
    );
    for (span, v) in &by {
        if !STRUCTURAL_SPANS.contains(span) {
            out.push_str(&format!(
                "{span:<14} {v:>12.3} {:>7.1}%\n",
                100.0 * ratio(*v, wall_ms)
            ));
        }
    }
    let rest = uncovered_ms(spans, root);
    out.push_str(&format!(
        "{:<14} {rest:>12.3} {:>7.1}%\n",
        "uncovered",
        100.0 * ratio(rest, wall_ms),
    ));
    out
}

/// One row per `program` span of the median traced pass, with the self
/// time of each layer call it made.
pub fn program_table(run: &Run) -> String {
    let spans = run.tracer.spans();
    let Some(pass) = median_traced_pass(run) else {
        return String::new();
    };
    let root = pass.root.expect("traced passes have a root span");
    let own = self_times_ns(spans);
    let cols = ["parse", "extract", "collapse", "schedule", "solve"];
    let mut out = format!("{:<16}", "program");
    for c in cols.iter().chain(&["uncovered", "total"]) {
        out.push_str(&format!(" {c:>10}"));
    }
    out.push('\n');
    let in_pass = |i: usize| {
        let mut p = spans[i].parent;
        while let Some(q) = p {
            if q == root {
                return true;
            }
            p = spans[q].parent;
        }
        false
    };
    for (i, s) in spans.iter().enumerate() {
        if s.name != "program" || !in_pass(i) {
            continue;
        }
        out.push_str(&format!("{:<16}", s.label));
        for c in cols {
            let ms: f64 = spans
                .iter()
                .enumerate()
                .filter(|(_, k)| k.parent == Some(i) && k.name == c)
                .map(|(j, _)| own[j] as f64 / 1e6)
                .sum();
            out.push_str(&format!(" {ms:>10.3}"));
        }
        out.push_str(&format!(
            " {:>10.3} {:>10.3}\n",
            own[i] as f64 / 1e6,
            s.dur_ns() as f64 / 1e6
        ));
    }
    out
}

fn median_traced_pass(run: &Run) -> Option<&crate::workload::PassRecord> {
    let mut traced: Vec<_> = run.passes.iter().filter(|p| p.traced).collect();
    traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    traced.get(traced.len().saturating_sub(1) / 2).copied()
}
