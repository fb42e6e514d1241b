//! Self-tests at a tiny scale: determinism of the inputs, the output
//! check, and the layer table's arithmetic.

use crate::check::{cached_answers, check_static, compare_recomputes};
use crate::drive::run_phase;
use crate::env::{setup, Scale, Traffic, Workload};
use crate::trace::{serve_table, Replay, Tracer, ROOT, SERVE_CHILDREN};
use qcat_data::IngestTable;
use qcat_serve::ServerConfig;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Timing tests run one at a time, at the pool width the workloads
/// pin, so they do not compete for the two cores.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    std::env::set_var("QCAT_THREADS", "1");
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn same_seed_same_requests_other_seed_other_requests() {
    let _serial = serial();
    for workload in Workload::ALL {
        let hash = |seed| {
            let (env, _) = setup(Scale::TINY, seed, None);
            Traffic::generate(workload, &env, seed).hash()
        };
        assert_eq!(hash(7), hash(7), "{}", workload.name());
        assert_ne!(hash(7), hash(8), "{}", workload.name());
    }
}

#[test]
fn output_check_catches_a_tree_from_another_query() {
    let _serial = serial();
    let (env, _) = setup(Scale::TINY, 3, None);
    let traffic = Traffic::generate(Workload::Browse, &env, 3);
    let mut phase = run_phase(Workload::Browse, &env.server, &traffic, 0.3, None);
    let stats = env.stats();
    let clean = check_static(&phase.readers, &traffic, &env.relation, &stats);
    assert!(clean.checked >= 2, "too few answers to plant into");
    assert_eq!(clean.mismatched, 0);

    let answers = &mut phase.readers[0].answers;
    let mut qids: Vec<u32> = answers.keys().copied().collect();
    qids.sort_unstable();
    let donor = answers[&qids[1]][0].clone();
    let victim = &mut answers.get_mut(&qids[0]).expect("answered query")[0];
    assert_ne!(victim.digest, donor.digest, "planted tree must differ");
    victim.digest = donor.digest;
    victim.rows = donor.rows;
    let planted = check_static(&phase.readers, &traffic, &env.relation, &stats);
    assert_eq!(planted.mismatched, victim_count(&phase, qids[0]));
}

fn victim_count(phase: &crate::drive::Phase, qid: u32) -> u64 {
    phase.readers[0].answers[&qid][0].count
}

#[test]
fn ingest_check_compares_every_cached_answer_and_catches_a_stale_one() {
    let _serial = serial();
    let (env, _) = setup(Scale::TINY, 4, None);
    let traffic = Traffic::generate(Workload::Ingest, &env, 4);
    let phase = run_phase(Workload::Ingest, &env.server, &traffic, 0.5, None);
    assert!(phase
        .writer
        .as_ref()
        .is_some_and(|w| !w.append_ns.is_empty()));
    let mut cached = cached_answers(&env.server, &phase.readers, &traffic);
    assert!(cached.len() >= 2, "{} cached answers", cached.len());
    let clean = compare_recomputes(&env.server, &cached, &traffic);
    assert_eq!(clean.checked, cached.len() as u64);
    assert_eq!(clean.mismatched, 0);

    // A cached answer that stayed behind the data: another query's tree.
    let other = cached
        .iter()
        .find(|c| c.rendered != cached[0].rendered)
        .expect("two different cached answers")
        .clone();
    cached[0].rendered = other.rendered;
    cached[0].rows = other.rows;
    let planted = compare_recomputes(&env.server, &cached, &traffic);
    assert_eq!(planted.mismatched, 1);
}

#[test]
fn traced_layer_shares_sum_to_one() {
    let _serial = serial();
    for workload in Workload::ALL {
        let (env, _) = setup(Scale::TINY, 5, None);
        let traffic = Traffic::generate(workload, &env, 5);
        let server = env.fresh_server();
        let replay = Replay::new(
            IngestTable::new(env.relation.clone()),
            env.stats(),
            ServerConfig::default(),
        );
        let mut phase = run_phase(workload, &server, &traffic, 0.3, Some(&replay));
        let tr = phase.tracer.take().expect("traced phase has spans");
        let table = serve_table(&tr).expect("children within their parent");
        assert_eq!(table.len(), SERVE_CHILDREN.len() + 1);
        let sum: f64 = table.iter().map(|r| r.share).sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "{}: shares sum to {sum}",
            workload.name()
        );
        assert!(table.iter().all(|r| r.share >= 0.0));
        assert_eq!(tr.total("serve").calls as usize, phase.serves());
    }
}

#[test]
fn children_longer_than_their_parent_are_refused() {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, 0, 16);
    let at = |us| epoch + Duration::from_micros(us);
    let serve = tr.record("serve", at(0), at(10), ROOT, 0);
    tr.record("sql.parse", at(10), at(25), serve, 0);
    assert!(serve_table(&tr).is_err());
}
