//! Backend-identity property for the dense-state solver core
//! (DESIGN.md §11): the hash and dense visited-state backends must be
//! indistinguishable in every answer, step count and budget verdict on
//! seeded synthetic programs.
//!
//! All randomness derives from `PARCFL_TEST_SEED` (default fixed); every
//! failure message prints the seed to replay with.

use parcfl::check::seed::derive;
use parcfl::check::test_seed;
use parcfl::core::{SolverConfig, StateBackend};
use parcfl::runtime::run_seq;
use parcfl::synth::{build_bench, Profile};

/// Hash and dense visited-state tables produce bit-identical runs on
/// seeded synthetic graphs: same answers, same step counts, same
/// publication-independent stats. The state backend is a layout choice,
/// never a semantic one.
#[test]
fn hash_and_dense_runs_are_bit_identical() {
    let seed = test_seed();
    for i in 0..12u64 {
        let profile_seed = derive(seed, 0xD0_0000 + i);
        let profile = if i % 3 == 0 {
            Profile::small(profile_seed)
        } else {
            Profile::tiny(profile_seed)
        };
        let bench = build_bench(&profile);
        // Tight budgets on odd iterations: OutOfBudget decisions must
        // also be backend-independent, not just completed answers.
        let budget = if i % 2 == 0 {
            5_000_000
        } else {
            2_000 + i * 997
        };
        let mk = |state: StateBackend| SolverConfig {
            budget,
            context_sensitive: i % 4 != 3,
            memoize: i % 5 == 0,
            state,
            ..SolverConfig::default()
        };
        let hash = run_seq(&bench.pag, &bench.queries, &mk(StateBackend::Hash));
        let dense = run_seq(&bench.pag, &bench.queries, &mk(StateBackend::Dense));
        assert_eq!(
            hash.sorted_answers(),
            dense.sorted_answers(),
            "PARCFL_TEST_SEED={seed} {} budget={budget}: answers diverge",
            bench.name
        );
        assert_eq!(
            hash.stats.traversed_steps, dense.stats.traversed_steps,
            "PARCFL_TEST_SEED={seed} {}: traversal work diverges",
            bench.name
        );
        assert_eq!(
            hash.stats.completed, dense.stats.completed,
            "PARCFL_TEST_SEED={seed} {}: completion counts diverge",
            bench.name
        );
        assert_eq!(
            hash.stats.out_of_budget, dense.stats.out_of_budget,
            "PARCFL_TEST_SEED={seed} {}: OOB counts diverge",
            bench.name
        );
    }
}
