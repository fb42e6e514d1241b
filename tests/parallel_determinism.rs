//! Thread-count invariance of the parallel Figure-6 loop.
//!
//! The categorizer fans (candidate × node) pricing across a
//! `qcat_pool::ThreadPool` but reduces costs serially in (candidate,
//! node) order, so the float sums — and therefore every decision the
//! loop makes — must not depend on the worker count. This suite pins
//! that contract end to end through the facade: byte-identical
//! rendered trees and bit-identical `CategorizeTrace` candidate costs
//! at 1, 2, and 8 threads, over broadened workload queries whose
//! result sets are too large to stay a single leaf.

use qcat::core::{render_tree, Categorizer};
use qcat::exec::{execute_normalized, ResultSet};
use qcat::sql::NormalizedQuery;
use qcat::study::{broaden_query, StudyEnv, StudyScale};
use qcat::workload::WorkloadStatistics;

/// A Smoke-scale study environment, its statistics over the full log,
/// and up to `max_cases` `(broadened query, result)` pairs whose result
/// sets exceed the leaf-size threshold — the inputs that exercise the
/// parallel partition loop. Deterministic for a given `seed`.
fn oversized_cases(
    seed: u64,
    max_cases: usize,
) -> (
    StudyEnv,
    WorkloadStatistics,
    Vec<(NormalizedQuery, ResultSet)>,
) {
    let env = StudyEnv::generate(StudyScale::Smoke, seed);
    let stats = env.stats_for(&env.log);
    let schema = env.relation.schema().clone();
    let mut cases = Vec::new();
    for w in env.log.queries() {
        if cases.len() >= max_cases {
            break;
        }
        let Some(qw) = broaden_query(w, &schema, &env.geography) else {
            continue;
        };
        let Ok(result) = execute_normalized(&env.relation, &qw) else {
            continue;
        };
        if result.len() > env.config.max_leaf_tuples {
            cases.push((qw, result));
        }
    }
    (env, stats, cases)
}

#[test]
fn tree_and_trace_identical_across_thread_counts() {
    let (env, stats, cases) = oversized_cases(987, 4);
    assert!(!cases.is_empty());
    for (case_idx, (qw, result)) in cases.iter().enumerate() {
        let serial = Categorizer::new(&stats, env.config.with_threads(1));
        let (tree_1, trace_1) = serial.categorize_traced(result, Some(qw));
        tree_1.check_invariants().unwrap();
        let render_1 = render_tree(&tree_1, usize::MAX);
        for threads in [2usize, 8] {
            let wide = Categorizer::new(&stats, env.config.with_threads(threads));
            let (tree_t, trace_t) = wide.categorize_traced(result, Some(qw));
            assert_eq!(
                render_tree(&tree_t, usize::MAX),
                render_1,
                "case {case_idx}: rendered tree differs at threads={threads}"
            );
            assert_eq!(
                trace_t.levels.len(),
                trace_1.levels.len(),
                "case {case_idx}: level count differs at threads={threads}"
            );
            for (lvl_t, lvl_1) in trace_t.levels.iter().zip(&trace_1.levels) {
                assert_eq!(lvl_t.level, lvl_1.level);
                assert_eq!(
                    lvl_t.chosen, lvl_1.chosen,
                    "case {case_idx} level {}: winner differs at threads={threads}",
                    lvl_1.level
                );
                assert_eq!(lvl_t.nodes_partitioned, lvl_1.nodes_partitioned);
                assert_eq!(lvl_t.categories_created, lvl_1.categories_created);
                assert_eq!(lvl_t.candidate_costs.len(), lvl_1.candidate_costs.len());
                for ((attr_t, cost_t), (attr_1, cost_1)) in
                    lvl_t.candidate_costs.iter().zip(&lvl_1.candidate_costs)
                {
                    assert_eq!(attr_t, attr_1);
                    // Bit equality, not approximate: the serial
                    // reduction order makes the sums exact.
                    assert_eq!(
                        cost_t.to_bits(),
                        cost_1.to_bits(),
                        "case {case_idx} level {} attr {attr_1}: cost {cost_t} vs {cost_1} at threads={threads}",
                        lvl_1.level
                    );
                }
            }
        }
    }
}
