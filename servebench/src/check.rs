//! Output checks.
//!
//! `browse` and `drilldown` never write during the timed phase, so
//! every answer a reader saw must equal, byte for byte, an independent
//! execute → categorize → render of the same query over the base
//! table. `ingest` writes while it reads, so after the run every
//! answer the server still derives from its caches must equal a
//! cleared-cache recompute at the final generation.

use crate::drive::{Digest, ReaderLog};
use crate::env::Traffic;
use qcat_core::{render_tree, Categorizer};
use qcat_data::Relation;
use qcat_exec::{execute_normalized_with, AccessPath};
use qcat_serve::{ServeOutcome, Server, ServerConfig};
use qcat_sql::normalize::NormalizedQuery;
use qcat_workload::WorkloadStatistics;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// How a check went.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Distinct answers compared.
    pub checked: u64,
    /// Requests whose answer differed from the reference.
    pub mismatched: u64,
}

impl Verdict {
    pub fn add(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.mismatched += other.mismatched;
    }
}

/// The reference answer: execute, categorize and render `query` from
/// scratch, as the server's cold path does.
pub fn reference(
    relation: &Relation,
    stats: &WorkloadStatistics,
    config: &ServerConfig,
    query: &NormalizedQuery,
) -> (String, usize) {
    let rows =
        execute_normalized_with(relation, query, AccessPath::Auto).expect("reference execute");
    let tree = Categorizer::new(stats, config.categorize).categorize(&rows, Some(query));
    (render_tree(&tree, config.render_depth), rows.len())
}

/// Compare every answer the readers saw with `reference_of(qid)`,
/// computing the references on two threads. Answers are compared by
/// length and a 64-bit hash of their bytes.
pub fn check_answers(
    readers: &[ReaderLog],
    reference_of: impl Fn(u32) -> (String, usize) + Sync,
) -> Verdict {
    let qids: Vec<u32> = readers
        .iter()
        .flat_map(|r| r.answers.keys().copied())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let half = qids.len().div_ceil(2);
    let refs: HashMap<u32, (Digest, usize)> = std::thread::scope(|s| {
        let workers: Vec<_> = qids
            .chunks(half.max(1))
            .map(|chunk| {
                let reference_of = &reference_of;
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&q| {
                            let (text, rows) = reference_of(q);
                            (q, (Digest::of(&text), rows))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference thread"))
            .collect()
    });
    let mut verdict = Verdict::default();
    for log in readers {
        for (qid, seen) in &log.answers {
            let (want, rows) = &refs[qid];
            for answer in seen {
                verdict.checked += 1;
                if answer.digest != *want || answer.rows != *rows {
                    verdict.mismatched += answer.count;
                }
            }
        }
    }
    verdict
}

/// Check a static-table phase against fresh recomputes.
pub fn check_static(
    readers: &[ReaderLog],
    traffic: &Traffic,
    relation: &Relation,
    stats: &WorkloadStatistics,
) -> Verdict {
    let config = ServerConfig::default();
    check_answers(readers, |qid| {
        reference(relation, stats, &config, &traffic.queries[qid as usize])
    })
}

/// An answer the server gave from one of its caches after an ingest
/// phase, kept to compare with a cleared-cache recompute.
#[derive(Debug, Clone)]
pub struct Cached {
    pub qid: u32,
    pub outcome: ServeOutcome,
    pub rendered: Arc<String>,
    pub rows: usize,
}

/// First pass of the ingest check, with no writer running: serve every
/// query the readers issued, on two threads, and keep each answer that
/// did not come back `Cold`.
pub fn cached_answers(server: &Server, readers: &[ReaderLog], traffic: &Traffic) -> Vec<Cached> {
    let qids: Vec<u32> = readers
        .iter()
        .flat_map(|r| r.answers.keys().copied())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let half = qids.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = qids
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .filter_map(|&qid| {
                            let served = server
                                .serve(&traffic.sql[qid as usize])
                                .expect("post-run serve");
                            (served.outcome != ServeOutcome::Cold).then_some(Cached {
                                qid,
                                outcome: served.outcome,
                                rendered: served.rendered,
                                rows: served.rows,
                            })
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("post-run serve thread"))
            .collect()
    })
}

/// Second pass: recompute each kept answer from cleared caches (cleared
/// before every query, so each recompute is `Cold`) and compare.
pub fn compare_recomputes(server: &Server, cached: &[Cached], traffic: &Traffic) -> Verdict {
    let mut verdict = Verdict::default();
    for answer in cached {
        let sql = &traffic.sql[answer.qid as usize];
        server.clear_caches();
        let fresh = server.serve(sql).expect("cleared-cache serve");
        verdict.checked += 1;
        if fresh.outcome != ServeOutcome::Cold
            || fresh.rendered != answer.rendered
            || fresh.rows != answer.rows
        {
            verdict.mismatched += 1;
            eprintln!("stale {:?} answer: {sql}", answer.outcome);
        }
    }
    verdict
}

/// After an ingest phase: every answer the server still derives from
/// its caches must equal the answer it computes from cleared caches at
/// the final generation. All cached answers are read before the first
/// clear, so none is lost to it.
pub fn check_ingest(server: &Server, readers: &[ReaderLog], traffic: &Traffic) -> Verdict {
    let cached = cached_answers(server, readers, traffic);
    compare_recomputes(server, &cached, traffic)
}
