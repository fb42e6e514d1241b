//! Bench-side spans and the layer replay of the traced run.
//!
//! The program is never instrumented: after each `Server::serve`
//! returns, the traced run replays the same request through the
//! public entry points of the layers it went through (the path comes
//! from `Served::outcome`) and times each call from outside. A replay
//! span's parent is the serve span it explains; it runs right after
//! that span on the same thread, so its parent is logical, not
//! enclosing. Whatever the serve span spent outside the replayed
//! calls (cache probes, locks, single-flight, clones) is the
//! `serve.unattributed` row.

use crate::env::Traffic;
use qcat_core::{render_tree, CategorizeConfig, Categorizer};
use qcat_data::IngestTable;
use qcat_exec::{execute_normalized_with, execute_residual, AccessPath, ResultSet};
use qcat_serve::{fingerprint, EpochLru, ServeOutcome};
use qcat_sql::normalize::NormalizedQuery;
use qcat_sql::{parse_select, residual_attrs, subsumes};
use qcat_workload::WorkloadStatistics;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub thread: u8,
    pub id: u32,
    pub parent: u32,
    pub req: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Sum and count of a span's durations or of a recorded quantity.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub sum: u64,
    pub calls: u64,
}

/// Spans of one thread, plus running totals so the table does not
/// depend on how many spans are kept for the span file.
pub struct Tracer {
    epoch: Instant,
    thread: u8,
    next_id: u32,
    keep: usize,
    pub spans: Vec<Span>,
    times: BTreeMap<&'static str, Acc>,
    quantities: BTreeMap<&'static str, Acc>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`; it keeps the
    /// first `keep` spans for the span file.
    pub fn new(epoch: Instant, thread: u8, keep: usize) -> Tracer {
        Tracer {
            epoch,
            thread,
            next_id: 0,
            keep,
            spans: Vec::new(),
            times: BTreeMap::new(),
            quantities: BTreeMap::new(),
        }
    }

    /// Record a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        req: u32,
    ) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let start_ns = nanos(start.duration_since(self.epoch));
        let end_ns = nanos(end.duration_since(self.epoch));
        let acc = self.times.entry(name).or_default();
        acc.sum += end_ns - start_ns;
        acc.calls += 1;
        if self.spans.len() < self.keep {
            self.spans.push(Span {
                name,
                thread: self.thread,
                id,
                parent,
                req,
                start_ns,
                end_ns,
            });
        }
        id
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, req);
        out
    }

    /// Add `value` to a per-call quantity (rows, bytes, nodes).
    pub fn add(&mut self, name: &'static str, value: usize) {
        let acc = self.quantities.entry(name).or_default();
        acc.sum += value as u64;
        acc.calls += 1;
    }

    /// Fold another thread's totals and kept spans into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (name, acc) in other.times {
            let mine = self.times.entry(name).or_default();
            mine.sum += acc.sum;
            mine.calls += acc.calls;
        }
        for (name, acc) in other.quantities {
            let mine = self.quantities.entry(name).or_default();
            mine.sum += acc.sum;
            mine.calls += acc.calls;
        }
        self.spans.extend(other.spans);
    }

    /// Total nanoseconds and calls of span `name`.
    pub fn total(&self, name: &str) -> Acc {
        self.times.get(name).copied().unwrap_or_default()
    }

    /// Mean of quantity `name` per recorded call (0 when never
    /// recorded).
    pub fn mean_quantity(&self, name: &str) -> f64 {
        self.quantities
            .get(name)
            .filter(|a| a.calls > 0)
            .map_or(0.0, |a| a.sum as f64 / a.calls as f64)
    }

    /// Write the kept spans as tab-separated lines.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "thread\tid\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.thread, s.id, parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The layer calls a request's serve path is replayed through, in
/// order. These are the children of the `serve` span.
pub const SERVE_CHILDREN: [&str; 7] = [
    "sql.parse",
    "sql.normalize",
    "serve.fingerprint",
    "exec.execute",
    "exec.residual",
    "core.categorize",
    "core.render",
];

/// The result sets the replay computed. A `ResultCacheHit`
/// re-categorizes one of them, and a `ContainmentHit` filters one.
/// They are held in an `EpochLru` with the server's result-cache byte
/// budget. It is inserted into and touched the way the server's result
/// cache is, so it holds about the same answers as the server's.
struct Memo {
    lru: EpochLru<Arc<ResultSet>>,
    /// The query of every key in `lru` that may donate (no `LIMIT`).
    /// Keys `lru` has evicted are dropped at the next donor search, or
    /// when they outnumber the live ones.
    queries: HashMap<String, NormalizedQuery>,
}

/// State the layer replay runs against: a bench-owned ingest table and
/// statistics. During a phase they hold the base table and log; the
/// writer's batches and queries are replayed into them afterwards.
pub struct Replay {
    ingest: IngestTable,
    stats: RwLock<Arc<WorkloadStatistics>>,
    categorize: CategorizeConfig,
    render_depth: usize,
    memo: Mutex<Memo>,
    /// Containment hits for which the replay held no donor. They are
    /// replayed as a cold execute instead.
    pub donor_fallbacks: std::sync::atomic::AtomicU64,
}

impl Replay {
    pub fn new(
        ingest: IngestTable,
        stats: WorkloadStatistics,
        config: qcat_serve::ServerConfig,
    ) -> Replay {
        Replay {
            ingest,
            stats: RwLock::new(Arc::new(stats)),
            categorize: config.categorize,
            render_depth: config.render_depth,
            memo: Mutex::new(Memo {
                lru: EpochLru::new(config.result_cache_bytes),
                queries: HashMap::new(),
            }),
            donor_fallbacks: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn memo(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn remember(&self, key: String, query: &NormalizedQuery, rows: &Arc<ResultSet>) {
        let mut memo = self.memo();
        memo.lru
            .insert(key.clone(), Arc::clone(rows), 0, rows.heap_bytes());
        if memo.lru.has(&key) && query.limit.is_none() {
            memo.queries.insert(key, query.clone());
        }
        if memo.queries.len() > 2 * memo.lru.len() + 64 {
            let Memo { lru, queries } = &mut *memo;
            queries.retain(|key, _| lru.has(key));
        }
    }

    /// The smallest held answer whose query subsumes `query`: the
    /// donor the server's containment probe picks when the replay's
    /// cache holds what the server's does. Every candidate is touched,
    /// as the server's probe touches them.
    fn donor(&self, query: &NormalizedQuery) -> Option<(NormalizedQuery, Arc<ResultSet>)> {
        let mut memo = self.memo();
        let Memo { lru, queries } = &mut *memo;
        queries.retain(|key, _| lru.has(key));
        let mut best: Option<(&NormalizedQuery, Arc<ResultSet>)> = None;
        for (key, wide) in queries.iter() {
            if !subsumes(wide, query) {
                continue;
            }
            if let Some(rows) = lru.get(key, 0) {
                if best.as_ref().is_none_or(|(_, b)| rows.len() < b.len()) {
                    best = Some((wide, rows));
                }
            }
        }
        best.map(|(q, rows)| (q.clone(), rows))
    }

    /// Replay one served request through the layers its outcome says
    /// it used. Spans are children of `serve_span`.
    pub fn decompose(
        &self,
        tr: &mut Tracer,
        req: u32,
        serve_span: u32,
        sql: &str,
        outcome: ServeOutcome,
    ) {
        let snap = self.ingest.pin();
        let relation = snap.relation();
        let ast = tr
            .time("sql.parse", serve_span, req, || parse_select(sql))
            .expect("replayed SQL parses");
        let query = tr
            .time("sql.normalize", serve_span, req, || {
                qcat_sql::normalize::normalize(&ast, relation.schema())
            })
            .expect("replayed SQL normalizes");
        let key = tr.time("serve.fingerprint", serve_span, req, || fingerprint(&query));
        let execute = |tr: &mut Tracer| -> Arc<ResultSet> {
            let rows = tr
                .time("exec.execute", serve_span, req, || {
                    execute_normalized_with(relation, &query, AccessPath::Auto)
                })
                .expect("replayed execute");
            tr.add("exec.rows_out", rows.len());
            Arc::new(rows)
        };
        let result = match outcome {
            ServeOutcome::TreeCacheHit | ServeOutcome::Coalesced | ServeOutcome::Shed => return,
            ServeOutcome::ResultCacheHit => {
                // Bound first: a guard in the scrutinee would hold the
                // memo through the untimed execute.
                let remembered = self.memo().lru.get(&key, 0);
                match remembered {
                    Some(rows) => rows,
                    None => Arc::new(
                        execute_normalized_with(relation, &query, AccessPath::Auto)
                            .expect("replayed execute"),
                    ),
                }
            }
            ServeOutcome::ContainmentHit => match self.donor(&query) {
                Some((wide, donor)) => {
                    let residual = residual_attrs(&wide, &query);
                    let rows = tr
                        .time("exec.residual", serve_span, req, || {
                            execute_residual(relation, &query, donor.rows(), &residual)
                        })
                        .expect("replayed residual");
                    tr.add("exec.residual_rows_in", donor.len());
                    tr.add("exec.residual_rows_out", rows.len());
                    let rows = Arc::new(rows);
                    self.remember(key, &query, &rows);
                    rows
                }
                None => {
                    self.donor_fallbacks
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let rows = execute(tr);
                    self.remember(key, &query, &rows);
                    rows
                }
            },
            ServeOutcome::Cold => {
                let rows = execute(tr);
                self.remember(key, &query, &rows);
                rows
            }
        };
        let stats = Arc::clone(&self.stats.read().unwrap_or_else(|e| e.into_inner()));
        let tree = tr.time("core.categorize", serve_span, req, || {
            Categorizer::new(&stats, self.categorize).categorize(&result, Some(&query))
        });
        tr.add("core.categorize_rows_in", result.len());
        tr.add("core.tree_nodes", tree.node_count());
        let rendered = tr.time("core.render", serve_span, req, || {
            render_tree(&tree, self.render_depth)
        });
        tr.add("core.render_bytes", rendered.len());
    }

    /// Replay the writer's first `pairs` append + log pairs with no
    /// reader running, resting after each as a write probe does: each
    /// batch into the bench-owned
    /// ingest table (`data.append`) and each chunk into the bench-side
    /// statistics (`workload.absorb`, timing only the absorb, not the
    /// copy-on-write clone). Request id `i` links them to the i-th
    /// `serve.append` and `serve.log` spans. Run after the phase, so
    /// the replayed commits do not compete with the readers for cores
    /// while the server's commits block them.
    pub fn replay_writes(&self, traffic: &Traffic, pairs: usize, tr: &mut Tracer) {
        let mut stop = crate::drive::rested(pairs);
        for i in (0..).take_while(|&i| !stop(i)) {
            let req = i as u32;
            let batch = &traffic.batches[i % traffic.batches.len()];
            tr.time("data.append", ROOT, req, || self.ingest.append_rows(batch))
                .expect("bench-side append");
            let chunk = &traffic.log_chunks[i % traffic.log_chunks.len()];
            let mut stats = Arc::clone(&self.stats.read().unwrap_or_else(|e| e.into_inner()));
            let fresh = Arc::make_mut(&mut stats);
            tr.time("workload.absorb", ROOT, req, || fresh.absorb(chunk))
                .expect("absorb without faults");
            *self.stats.write().unwrap_or_else(|e| e.into_inner()) = stats;
        }
    }
}

/// One row of the layer table.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub total_ns: u64,
    pub calls: u64,
    pub share: f64,
}

/// The serve-time breakdown: every replayed layer plus the
/// unattributed rest, as shares of total `serve` time. Fails when a
/// child exceeds its parent or the shares do not add up.
pub fn serve_table(tr: &Tracer) -> Result<Vec<Row>, String> {
    let serve = tr.total("serve");
    let mut rows = Vec::new();
    let mut attributed = 0u64;
    for name in SERVE_CHILDREN {
        let acc = tr.total(name);
        attributed += acc.sum;
        rows.push(Row {
            name,
            total_ns: acc.sum,
            calls: acc.calls,
            share: 0.0,
        });
    }
    check_parent("serve", serve.sum, attributed)?;
    rows.push(Row {
        name: "serve.unattributed",
        total_ns: serve.sum - attributed,
        calls: serve.calls,
        share: 0.0,
    });
    for row in &mut rows {
        row.share = if serve.sum == 0 {
            0.0
        } else {
            row.total_ns as f64 / serve.sum as f64
        };
    }
    let sum: f64 = rows.iter().map(|r| r.share).sum();
    if serve.sum > 0 && (sum - 1.0).abs() > 1e-9 {
        return Err(format!("serve shares sum to {sum}, not 1"));
    }
    Ok(rows)
}

fn check_parent(parent: &str, total: u64, children: u64) -> Result<(), String> {
    if children > total {
        return Err(format!(
            "children of {parent} take {children} ns, more than its {total} ns"
        ));
    }
    Ok(())
}
