//! Closed-loop clients: reader threads that call `Server::serve` back
//! to back, and the writer that alternates `append_rows` with
//! `log_queries`.

use crate::env::{Traffic, Workload, TABLE};
use crate::trace::{Replay, Tracer, ROOT};
use qcat_serve::{ServeOutcome, Server};
use std::collections::HashMap;
use std::sync::{Arc, Barrier, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Spans each thread keeps for the span file.
const KEEP_SPANS: usize = 100_000;

/// Reader serves per writer append + log pair in `ingest`. The two
/// clients run in lock-step at this ratio (see [`Pace`]), so how many
/// cached answers each append evicts between two visits of a query
/// does not depend on the machine's speed.
pub const SERVES_PER_PAIR: u64 = 12;

/// Latency samples kept per reader: the first this many serves. The
/// bookkeeping must not grow with throughput, or `peak_rss_mb` would
/// measure the benchmark's speed instead of the program's memory.
const KEEP_SAMPLES: usize = 1 << 20;
/// Query ids per reader whose last answer stays held, so a repeated
/// answer is recognised by pointer instead of being hashed again.
const HOLD_ANSWERS: usize = 1024;
/// Equal slices of a phase that serve counts are kept for.
pub const SLICES: usize = 10;

/// Length and 64-bit SipHash of an answer's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    len: usize,
    sip: u64,
}

impl Digest {
    pub fn of(text: &str) -> Digest {
        use std::hash::{DefaultHasher, Hasher};
        let mut sip = DefaultHasher::new();
        sip.write(text.as_bytes());
        Digest {
            len: text.len(),
            sip: sip.finish(),
        }
    }
}

/// A distinct answer one reader saw for one query.
#[derive(Debug, Clone)]
pub struct Seen {
    pub digest: Digest,
    pub rows: usize,
    pub count: u64,
}

/// What one reader did.
#[derive(Debug, Default)]
pub struct ReaderLog {
    pub serves: u64,
    /// Latencies of the first `KEEP_SAMPLES` serves, in order.
    pub lat_ns: Vec<u64>,
    /// Serves completed in each of `SLICES` equal slices of the phase.
    pub slices: [u64; SLICES],
    pub outcomes: HashMap<&'static str, u64>,
    pub errors: u64,
    pub shed: u64,
    pub degraded: u64,
    /// Distinct answers per query id, for the output check.
    pub answers: HashMap<u32, Vec<Seen>>,
    /// The last answer of up to `HOLD_ANSWERS` query ids, with its
    /// index in `answers`.
    held: HashMap<u32, (Arc<String>, usize)>,
}

impl ReaderLog {
    fn record(&mut self, qid: u32, rendered: &Arc<String>, rows: usize) {
        if let Some((last, at)) = self.held.get(&qid) {
            if Arc::ptr_eq(last, rendered) {
                self.answers
                    .get_mut(&qid)
                    .expect("held answers are recorded")[*at]
                    .count += 1;
                return;
            }
        }
        let digest = Digest::of(rendered);
        let seen = self.answers.entry(qid).or_default();
        let at = match seen
            .iter()
            .position(|a| a.digest == digest && a.rows == rows)
        {
            Some(at) => {
                seen[at].count += 1;
                at
            }
            None => {
                seen.push(Seen {
                    digest,
                    rows,
                    count: 1,
                });
                seen.len() - 1
            }
        };
        if self.held.len() < HOLD_ANSWERS || self.held.contains_key(&qid) {
            self.held.insert(qid, (Arc::clone(rendered), at));
        }
    }
}

/// What the writer did.
#[derive(Debug, Default)]
pub struct WriterLog {
    pub append_ns: Vec<u64>,
    pub log_ns: Vec<u64>,
    pub errors: u64,
    pub kept: u64,
    pub evicted: u64,
}

/// One timed phase.
pub struct Phase {
    pub readers: Vec<ReaderLog>,
    pub writer: Option<WriterLog>,
    pub seconds: f64,
    /// Merged spans of every thread (traced phases only).
    pub tracer: Option<Tracer>,
}

impl Phase {
    pub fn serves(&self) -> usize {
        self.readers.iter().map(|r| r.serves as usize).sum()
    }

    pub fn outcome_count(&self, name: &str) -> u64 {
        self.readers
            .iter()
            .map(|r| r.outcomes.get(name).copied().unwrap_or(0))
            .sum()
    }
}

pub fn outcome_name(o: ServeOutcome) -> &'static str {
    match o {
        ServeOutcome::Cold => "cold",
        ServeOutcome::ResultCacheHit => "result_hit",
        ServeOutcome::ContainmentHit => "containment_hit",
        ServeOutcome::TreeCacheHit => "tree_hit",
        ServeOutcome::Coalesced => "coalesced",
        ServeOutcome::Shed => "shed",
    }
}

/// Lock-step between the `ingest` reader and writer. The writer starts
/// pair `i` (counting from 0) once the reader has finished
/// `i * SERVES_PER_PAIR` serves, and the reader starts serve `j` only
/// once the writer has finished `j / SERVES_PER_PAIR - 1` pairs. So the
/// writer never runs ahead of the reader, and the reader never more
/// than two pairs' worth of serves ahead of the writer. They still
/// overlap: the reader serves while a pair runs, and an append's
/// commit blocks it.
struct Pace {
    /// (serves finished, pairs finished)
    done: Mutex<(u64, u64)>,
    changed: Condvar,
    deadline: Instant,
}

impl Pace {
    fn new(deadline: Instant) -> Pace {
        Pace {
            done: Mutex::new((0, 0)),
            changed: Condvar::new(),
            deadline,
        }
    }

    /// Record progress, then wait until `ready` holds; false when the
    /// deadline passed first.
    fn advance(
        &self,
        bump: impl FnOnce(&mut (u64, u64)),
        ready: impl Fn(&(u64, u64)) -> bool,
    ) -> bool {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        bump(&mut done);
        self.changed.notify_all();
        while !ready(&done) {
            let left = self.deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            done = self
                .changed
                .wait_timeout(done, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        true
    }

    /// The reader has finished `serves`; may it start the next one?
    fn reader(&self, serves: u64) -> bool {
        self.advance(|d| d.0 = serves, |d| d.1 + 1 >= serves / SERVES_PER_PAIR)
    }

    /// The writer has finished `pairs`; may it start the next one?
    fn writer(&self, pairs: u64) -> bool {
        self.advance(|d| d.1 = pairs, |d| d.0 >= pairs * SERVES_PER_PAIR)
    }
}

/// Run every client of `workload` against `server` for `seconds`.
/// With a `replay`, each request is followed by its layer replay.
pub fn run_phase(
    workload: Workload,
    server: &Server,
    traffic: &Traffic,
    seconds: f64,
    replay: Option<&Replay>,
) -> Phase {
    let readers = workload.readers();
    let threads = readers + usize::from(workload.concurrent_writes());
    let barrier = Barrier::new(threads + 1);
    let epoch = Instant::now();
    let mut start = epoch;
    // Set by this thread just before the clients start.
    let pace: OnceLock<Pace> = OnceLock::new();
    let (logs, writer) = std::thread::scope(|s| {
        let barrier = &barrier;
        let pace = &pace;
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                s.spawn(move || {
                    let traced = replay.map(|rp| (rp, Tracer::new(epoch, r as u8, KEEP_SPANS)));
                    barrier.wait();
                    let start = Instant::now();
                    reader(server, traffic, r, start, seconds, pace.get(), traced)
                })
            })
            .collect();
        let writer = workload.concurrent_writes().then(|| {
            s.spawn(move || {
                let mut tracer = replay.map(|_| Tracer::new(epoch, readers as u8, KEEP_SPANS));
                barrier.wait();
                let pace = pace.get().expect("the pace is set before the start");
                let log = writes(server, traffic, |i| !pace.writer(i as u64), tracer.as_mut());
                (log, tracer)
            })
        });
        if workload.concurrent_writes() {
            let deadline = Instant::now() + Duration::from_secs_f64(seconds);
            let _ = pace.set(Pace::new(deadline));
        }
        barrier.wait();
        start = Instant::now();
        let logs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
        let writer = writer.map(|h| h.join().expect("writer thread"));
        (logs, writer)
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut merged: Option<Tracer> = None;
    let mut readers_out = Vec::new();
    for (log, tracer) in logs {
        readers_out.push(log);
        merge_into(&mut merged, tracer);
    }
    let writer = writer.map(|(log, tracer)| {
        merge_into(&mut merged, tracer);
        log
    });
    Phase {
        readers: readers_out,
        writer,
        seconds,
        tracer: merged,
    }
}

fn merge_into(into: &mut Option<Tracer>, tracer: Option<Tracer>) {
    if let Some(t) = tracer {
        match into {
            Some(m) => m.merge(t),
            None => *into = Some(t),
        }
    }
}

fn reader(
    server: &Server,
    traffic: &Traffic,
    reader: usize,
    start: Instant,
    seconds: f64,
    pace: Option<&Pace>,
    mut traced: Option<(&Replay, Tracer)>,
) -> (ReaderLog, Option<Tracer>) {
    let seq = &traffic.sequences[reader];
    let mut log = ReaderLog::default();
    let deadline = start + Duration::from_secs_f64(seconds);
    let slice_ns = seconds * 1e9 / SLICES as f64;
    let mut i = 0usize;
    loop {
        if pace.is_some_and(|p| !p.reader(i as u64)) {
            break;
        }
        let qid = seq[i % seq.len()];
        let sql = &traffic.sql[qid as usize];
        let t0 = Instant::now();
        let served = server.serve(sql);
        let t1 = Instant::now();
        log.serves += 1;
        if log.lat_ns.len() < KEEP_SAMPLES {
            log.lat_ns.push(nanos(t1 - t0));
        }
        let slice = (nanos(t1 - start) as f64 / slice_ns) as usize;
        log.slices[slice.min(SLICES - 1)] += 1;
        match served {
            Ok(s) => {
                *log.outcomes.entry(outcome_name(s.outcome)).or_default() += 1;
                if s.outcome == ServeOutcome::Shed {
                    log.shed += 1;
                } else if s.tree.degraded().is_some() {
                    log.degraded += 1;
                }
                log.record(qid, &s.rendered, s.rows);
                if let Some((replay, tr)) = traced.as_mut() {
                    let req = i as u32;
                    let span = tr.record("serve", t0, t1, ROOT, req);
                    replay.decompose(tr, req, span, sql, s.outcome);
                }
            }
            Err(e) => {
                log.errors += 1;
                eprintln!("serve error on {sql}: {e}");
            }
        }
        i += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    (log, traced.map(|(_, tr)| tr))
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Share of a write pair's time that a write probe, and the layer
/// replay of writes, rest after it. The host's speed drifts over
/// seconds: 100 pairs back to back (about 8 s) could fall inside one
/// slow stretch, and they also ran about a third faster than pairs
/// with other work between them, as the `ingest` writer's are.
pub const REST_PER_BUSY: f64 = 0.5;

/// A `stop` for [`writes`]: `pairs` pairs, resting `REST_PER_BUSY` of
/// each pair's time after it.
pub fn rested(pairs: usize) -> impl FnMut(usize) -> bool {
    let mut pair_start = Instant::now();
    move |i| {
        if i >= pairs {
            return true;
        }
        if i > 0 {
            std::thread::sleep(pair_start.elapsed().mul_f64(REST_PER_BUSY));
        }
        pair_start = Instant::now();
        false
    }
}

/// Alternate `append_rows` and `log_queries` until `stop(i)` says so
/// (`stop` may also wait, to pace the writer). With a tracer, each call
/// is a span whose request id is the pair's index.
pub fn writes(
    server: &Server,
    traffic: &Traffic,
    mut stop: impl FnMut(usize) -> bool,
    mut tracer: Option<&mut Tracer>,
) -> WriterLog {
    let mut log = WriterLog::default();
    let mut i = 0usize;
    while !stop(i) {
        let batch = &traffic.batches[i % traffic.batches.len()];
        let t0 = Instant::now();
        let appended = server.append_rows(TABLE, batch);
        let t1 = Instant::now();
        log.append_ns.push(nanos(t1 - t0));
        match appended {
            Ok(outcome) if outcome.added == batch.len() => {
                log.kept += outcome.kept as u64;
                log.evicted += outcome.evicted as u64;
            }
            Ok(outcome) => {
                log.errors += 1;
                eprintln!("append added {} of {} rows", outcome.added, batch.len());
            }
            Err(e) => {
                log.errors += 1;
                eprintln!("append error: {e}");
            }
        }
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("serve.append", t0, t1, ROOT, i as u32);
        }

        let queries = traffic.log_chunks[i % traffic.log_chunks.len()].clone();
        let t0 = Instant::now();
        let logged = server.log_queries(TABLE, queries);
        let t1 = Instant::now();
        log.log_ns.push(nanos(t1 - t0));
        if let Err(e) = logged {
            log.errors += 1;
            eprintln!("log_queries error: {e}");
        }
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("serve.log", t0, t1, ROOT, i as u32);
        }
        i += 1;
    }
    log
}
