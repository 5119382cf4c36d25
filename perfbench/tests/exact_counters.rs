//! Runs every workload twice on one seed, at a reduced size, and checks
//! that the counters marked exact repeat exactly (graph sizes, schedule
//! shapes, queries issued, and on the program workloads the digest of the
//! answers), and that every answer agrees with the oracle. Counters that
//! depend on thread interleaving (`core.*`, `concurrent.*`) and every
//! time are noisy and are not compared.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::metrics::EXACT;
use perfbench::workload::{run, Params, Run, Workload};

fn small_params() -> Params {
    Params {
        suite_profiles: 3,
        suite_variants: 1,
        small_programs: 40,
        edit_programs: 2,
        edits: 8,
        setup_reps: 2,
        threads: 2,
        ..Params::standard()
    }
}

/// The exact counters of a run: those of its set-up and of its first
/// pass, plus the query count.
fn exact_counters(r: &Run) -> Vec<(String, f64)> {
    let pass = &r.passes[0];
    let mut out: Vec<(String, f64)> = r
        .setup_counters
        .iter()
        .chain(&pass.counters)
        .filter(|(k, _)| EXACT.contains(k))
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    out.push(("queries".into(), pass.queries as f64));
    out
}

#[test]
fn exact_counters_repeat_on_one_seed() {
    let p = small_params();
    for w in Workload::ALL {
        let a = run(w, &p, 7, 0.0, false);
        let b = run(w, &p, 7, 0.0, false);
        for r in [&a, &b] {
            assert_eq!(r.tally.mismatches, 0, "{}: oracle mismatch", w.name());
            assert_eq!(r.tally.andersen_violations, 0, "{}: unsound", w.name());
            assert!(r.passes[0].queries > 0, "{}: no queries", w.name());
        }
        let (ea, eb) = (exact_counters(&a), exact_counters(&b));
        assert!(
            ea.iter().any(|(k, _)| k == "pag.nodes"),
            "{}: graph sizes missing",
            w.name()
        );
        assert_eq!(ea, eb, "{}: exact counters differ", w.name());
        if w != Workload::EditRequery {
            assert_eq!(a.digests, b.digests, "{}: answers differ", w.name());
        }
    }
}

#[test]
fn seeds_change_the_inputs() {
    let p = small_params();
    let a = run(Workload::ManySmall, &p, 1, 0.0, false);
    let b = run(Workload::ManySmall, &p, 2, 0.0, false);
    assert_ne!(a.digests, b.digests);
}
