//! Seeded inputs: the table and workload log every workload registers
//! (the set-up `setup_s` times), and the per-workload traffic replayed
//! against it.

use crate::trace::{Tracer, ROOT};
use qcat_data::{Relation, Value};
use qcat_datagen::{generate_dataset, generate_homes, generate_workload, Geography};
use qcat_datagen::{HomesConfig, Rng, WorkloadGenConfig};
use qcat_exec::{execute_normalized_with, AccessPath};
use qcat_serve::{fingerprint, Server, ServerConfig};
use qcat_sql::normalize::{AttrCondition, NormalizedQuery};
use qcat_workload::{PreprocessConfig, WorkloadLog, WorkloadStatistics};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

/// The one table every workload serves.
pub const TABLE: &str = "listproperty";

/// Table and log sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub rows: usize,
    pub queries: usize,
}

impl Scale {
    /// The repository's Standard study scale: 120k rows, 25k queries.
    pub const STANDARD: Scale = Scale {
        rows: 120_000,
        queries: 25_000,
    };
    /// Self-test scale.
    #[cfg(test)]
    pub const TINY: Scale = Scale {
        rows: 3_000,
        queries: 600,
    };
}

/// Rows per `append_rows` batch.
pub const BATCH_ROWS: usize = 32;
/// Queries per `log_queries` call.
pub const LOG_CHUNK: usize = 20;
/// Hot heads in `drilldown` and in the hot half of `ingest`'s reads.
pub const HOT_HEADS: usize = 64;
/// Refining conjuncts per drill-down head.
pub const REFINE_STEPS: usize = 3;
/// The `qcat-pool` width every workload is defined at. Every client
/// already keeps a core busy on a 2-core machine, and at width 2 the
/// pool's own threads competed with them: `browse` ran about a third
/// slower and its spread over seeds tripled.
pub const POOL_WIDTH: usize = 1;
/// Largest drill-down head, as a share of the table's rows.
const HEAD_MAX_FRACTION: f64 = 0.02;

/// A registered table plus everything the benchmark needs to replay
/// layers and check outputs against it.
pub struct Env {
    pub relation: Relation,
    pub log: WorkloadLog,
    /// The datagen geography, for generating append batches and
    /// logged queries that match the table.
    pub geography: Geography,
    pub prep: PreprocessConfig,
    pub server: Server,
}

/// Wall times of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: f64,
    pub log_parse: f64,
    pub index_build: f64,
    pub register: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate + self.log_parse + self.index_build + self.register
    }
}

/// The paper's separation intervals (price 5000, square footage 100,
/// year built 5; bedrooms and baths integer-granular).
pub fn preprocess_config(relation: &Relation) -> PreprocessConfig {
    let attr = |n: &str| {
        relation
            .schema()
            .resolve(n)
            .expect("listproperty attribute")
    };
    PreprocessConfig::new()
        .with_interval(attr("price"), 5_000.0)
        .with_interval(attr("square_footage"), 100.0)
        .with_interval(attr("year_built"), 5.0)
        .with_interval(attr("bedroomcount"), 1.0)
        .with_interval(attr("bathcount"), 1.0)
}

/// Generate the table and log from `seed` and register them with a
/// fresh default-config server: datagen, log parse, index build,
/// `register_table` (which builds the workload statistics). With a
/// tracer, each step is a span under one `setup` span.
pub fn setup(scale: Scale, seed: u64, tracer: Option<(&mut Tracer, u32)>) -> (Env, SetupTimes) {
    let t0 = Instant::now();
    let (relation, strings, geography) = generate_dataset(
        &HomesConfig::with_rows(scale.rows).with_seed(seed),
        &WorkloadGenConfig::with_queries(scale.queries).with_seed(seed.wrapping_add(1)),
    );
    let t1 = Instant::now();
    let log = WorkloadLog::parse(
        strings.iter().map(String::as_str),
        relation.schema(),
        Some(TABLE),
    );
    let t2 = Instant::now();
    relation.build_indexes();
    let t3 = Instant::now();
    let prep = preprocess_config(&relation);
    let server = Server::new(ServerConfig::default());
    let t4 = Instant::now();
    server
        .register_table(TABLE, relation.clone(), log.clone(), prep.clone())
        .expect("register the generated table");
    let t5 = Instant::now();
    if let Some((tr, req)) = tracer {
        let parent = tr.record("setup", t0, t5, ROOT, req);
        tr.record("datagen.generate", t0, t1, parent, req);
        tr.record("workload.log_parse", t1, t2, parent, req);
        tr.record("data.index_build", t2, t3, parent, req);
        tr.record("serve.register", t4, t5, parent, req);
    }
    let times = SetupTimes {
        generate: (t1 - t0).as_secs_f64(),
        log_parse: (t2 - t1).as_secs_f64(),
        index_build: (t3 - t2).as_secs_f64(),
        register: (t5 - t4).as_secs_f64(),
    };
    let env = Env {
        relation,
        log,
        geography,
        prep,
        server,
    };
    (env, times)
}

impl Env {
    /// The statistics `register_table` built, rebuilt bench-side.
    pub fn stats(&self) -> WorkloadStatistics {
        WorkloadStatistics::build(&self.log, self.relation.schema(), &self.prep)
    }

    /// A fresh default-config server over the same base table.
    pub fn fresh_server(&self) -> Server {
        let server = Server::new(ServerConfig::default());
        server
            .register_table(
                TABLE,
                self.relation.clone(),
                self.log.clone(),
                self.prep.clone(),
            )
            .expect("register the generated table");
        server
    }
}

/// Render a normalized query back to SQL the server parses.
pub fn sql_of(query: &NormalizedQuery, env: &Env) -> String {
    let schema = env.relation.schema();
    let mut conjuncts = Vec::new();
    for (attr, cond) in &query.conditions {
        let name = schema.name_of(*attr);
        match cond {
            AttrCondition::InStr(values) => {
                let list: Vec<String> = values
                    .iter()
                    .map(|v| format!("'{}'", v.replace('\'', "''")))
                    .collect();
                conjuncts.push(format!("{name} IN ({})", list.join(",")));
            }
            AttrCondition::InNum(values) => {
                let list: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
                conjuncts.push(format!("{name} IN ({})", list.join(",")));
            }
            AttrCondition::Range(r) => {
                if let Some(lo) = r.finite_lo() {
                    let op = if r.lo_inclusive { ">=" } else { ">" };
                    conjuncts.push(format!("{name} {op} {lo}"));
                }
                if let Some(hi) = r.finite_hi() {
                    let op = if r.hi_inclusive { "<=" } else { "<" };
                    conjuncts.push(format!("{name} {op} {hi}"));
                }
            }
        }
    }
    let mut sql = format!("SELECT * FROM {}", query.table);
    if !conjuncts.is_empty() {
        let _ = write!(sql, " WHERE {}", conjuncts.join(" AND "));
    }
    sql
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Browse,
    Drilldown,
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Browse, Workload::Drilldown, Workload::Ingest];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Drilldown => "drilldown",
            Workload::Ingest => "ingest",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Serving client threads (the writer of `ingest` is the second
    /// of its two clients and is not counted here).
    pub fn readers(self) -> usize {
        match self {
            Workload::Browse => 1,
            Workload::Drilldown => 2,
            Workload::Ingest => 1,
        }
    }

    /// Whether appends and `log_queries` run beside the reads.
    pub fn concurrent_writes(self) -> bool {
        self == Workload::Ingest
    }
}

/// Everything one workload replays: a pool of distinct SQL texts,
/// each reader's request sequence over it, and the write batches.
pub struct Traffic {
    pub sql: Vec<String>,
    pub queries: Vec<NormalizedQuery>,
    /// Per reader: query ids in request order. A reader that reaches
    /// the end wraps around.
    pub sequences: Vec<Vec<u32>>,
    /// `append_rows` batches, used in order (wrapping).
    pub batches: Vec<Vec<Vec<Value>>>,
    /// `log_queries` chunks, used in order (wrapping).
    pub log_chunks: Vec<Vec<NormalizedQuery>>,
}

/// Requests generated per drill-down reader (the sequence wraps).
const DRILL_REQUESTS: usize = 1 << 18;

impl Traffic {
    pub fn generate(workload: Workload, env: &Env, seed: u64) -> Traffic {
        let mut traffic = Traffic {
            sql: Vec::new(),
            queries: Vec::new(),
            sequences: Vec::new(),
            batches: Vec::new(),
            log_chunks: Vec::new(),
        };
        let distinct = distinct_queries(env);
        match workload {
            Workload::Browse => {
                let ids = distinct.iter().map(|q| traffic.intern(q, env)).collect();
                traffic.sequences.push(ids);
            }
            Workload::Drilldown => {
                let chains = drill_chains(env, &distinct, seed);
                let ids: Vec<Vec<u32>> = chains
                    .iter()
                    .map(|c| c.iter().map(|q| traffic.intern(q, env)).collect())
                    .collect();
                for reader in 0..workload.readers() {
                    let mut rng = Rng::seed_from_u64(mix(seed, 0xD1 + reader as u64));
                    traffic
                        .sequences
                        .push(drill_sequence(&ids, &mut rng, DRILL_REQUESTS));
                }
            }
            Workload::Ingest => {
                // One request in three draws one of the small hot heads,
                // uniformly; the other two walk the rest of the distinct
                // log in order. Hot heads answer faster than the rest, so
                // with one in two the median serve would sit in the gap
                // between the two groups and jump with the share of heads
                // evicted. Zipf-drawn, the hottest head alone made 7% of
                // the requests, and where its cost fell moved the median
                // by a third between seeds.
                let (heads, rest): (Vec<_>, Vec<_>) = {
                    let mut taken = 0;
                    distinct.iter().partition(|q| {
                        let take = taken < HOT_HEADS && is_small_head(env, q);
                        taken += usize::from(take);
                        take
                    })
                };
                let hot: Vec<u32> = heads.into_iter().map(|q| traffic.intern(q, env)).collect();
                let rest: Vec<u32> = rest.into_iter().map(|q| traffic.intern(q, env)).collect();
                let mut rng = Rng::seed_from_u64(mix(seed, 0x1A));
                let mut seq = Vec::with_capacity(rest.len() * 3 / 2 + 1);
                for pair in rest.chunks(2) {
                    seq.push(hot[rng.gen_range(0..hot.len())]);
                    seq.extend_from_slice(pair);
                }
                traffic.sequences.push(seq);
            }
        }
        traffic.batches = append_batches(env, seed, 256);
        traffic.log_chunks = log_chunks(env, seed, 200);
        traffic
    }

    fn intern(&mut self, query: &NormalizedQuery, env: &Env) -> u32 {
        self.sql.push(sql_of(query, env));
        self.queries.push(query.clone());
        u32::try_from(self.sql.len() - 1).expect("query pool fits u32")
    }

    /// FNV-1a over every input the run replays: SQL texts in request
    /// order, batch values and logged-query fingerprints.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for seq in &self.sequences {
            h.write(b"reader");
            for &id in seq {
                h.write(self.sql[id as usize].as_bytes());
            }
        }
        for batch in &self.batches {
            for row in batch {
                h.write(format!("{row:?}").as_bytes());
            }
        }
        for chunk in &self.log_chunks {
            for q in chunk {
                h.write(fingerprint(q).as_bytes());
            }
        }
        h.finish()
    }
}

/// FNV-1a, with a separator mixed in after each write.
#[derive(Debug)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn finish(&self) -> u64 {
        self.0
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Derive an independent sub-seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Logged queries with a fingerprint not seen earlier, in log order.
fn distinct_queries(env: &Env) -> Vec<NormalizedQuery> {
    let mut seen = HashSet::new();
    env.log
        .queries()
        .iter()
        .filter(|q| q.limit.is_none() && seen.insert(fingerprint(q)))
        .cloned()
        .collect()
}

/// One drill-down chain per hot head: the head, then the head with
/// one, two and three extra conjuncts. Each conjunct constrains an
/// attribute the head leaves free and is harvested from the log,
/// keeping only ones 15–70% selective on their own, so each step
/// narrows without emptying. Every step subsumes the next.
fn drill_chains(env: &Env, distinct: &[NormalizedQuery], seed: u64) -> Vec<Vec<NormalizedQuery>> {
    let n = env.relation.len().max(1) as f64;
    let mut pool: BTreeMap<qcat_data::AttrId, Vec<AttrCondition>> = BTreeMap::new();
    let mut probed = HashSet::new();
    for q in distinct {
        for (attr, cond) in &q.conditions {
            let bucket = pool.entry(*attr).or_default();
            if bucket.len() >= 6 {
                continue;
            }
            let mut single = q.clone();
            single.conditions = [(*attr, cond.clone())].into_iter().collect();
            single.order_by.clear();
            single.projection = None;
            if !probed.insert(fingerprint(&single)) {
                continue;
            }
            let rows = execute_normalized_with(&env.relation, &single, AccessPath::Auto)
                .expect("conjunct probe")
                .len();
            if (0.15..=0.7).contains(&(rows as f64 / n)) {
                bucket.push(cond.clone());
            }
        }
    }
    pool.retain(|_, c| !c.is_empty());
    let mut rng = Rng::seed_from_u64(mix(seed, 0xC4));
    let mut chains = Vec::new();
    let mut used = HashSet::new();
    for head in distinct {
        if chains.len() == HOT_HEADS {
            break;
        }
        let free: Vec<_> = pool
            .keys()
            .filter(|a| !head.constrains(**a))
            .copied()
            .collect();
        if free.len() < REFINE_STEPS || !head.order_by.is_empty() {
            continue;
        }
        if !is_small_head(env, head) {
            continue;
        }
        let mut chain = vec![head.clone()];
        let mut query = head.clone();
        let mut attrs = free.clone();
        for _ in 0..REFINE_STEPS {
            let attr = attrs.swap_remove(rng.gen_range(0..attrs.len()));
            let conds = &pool[&attr];
            query
                .conditions
                .insert(attr, conds[rng.gen_range(0..conds.len())].clone());
            chain.push(query.clone());
        }
        // Chains never share a step, so every step has one owner.
        if chain.iter().all(|q| used.insert(fingerprint(q))) {
            chains.push(chain);
        }
    }
    assert!(!chains.is_empty(), "no drill-down heads could be built");
    chains
}

/// A hot head answers at least one row and at most 2% of the table:
/// repeated heads should cost what a popular, specific search costs,
/// not whatever the first logged queries of a seed happen to be, and
/// every drill-down chain's trees then sit well inside the tree cache.
fn is_small_head(env: &Env, head: &NormalizedQuery) -> bool {
    let rows = execute_normalized_with(&env.relation, head, AccessPath::Auto)
        .expect("head probe")
        .len();
    rows > 0 && rows as f64 <= env.relation.len() as f64 * HEAD_MAX_FRACTION
}

/// Sessions over Zipf-hot chains: visit the head and each refinement
/// in turn, then step back to two earlier steps.
fn drill_sequence(chains: &[Vec<u32>], rng: &mut Rng, len: usize) -> Vec<u32> {
    let zipf = qcat_datagen::distributions::Zipf::new(chains.len(), 1.0);
    let mut seq = Vec::with_capacity(len + 2 * REFINE_STEPS + 2);
    while seq.len() < len {
        let chain = &chains[zipf.sample(rng)];
        seq.extend_from_slice(chain);
        for _ in 0..2 {
            seq.push(chain[rng.gen_range(0..chain.len() - 1)]);
        }
    }
    seq.truncate(len);
    seq
}

/// Batches of freshly generated listings (a second relation, so each
/// batch has a realistic value footprint).
fn append_batches(env: &Env, seed: u64, count: usize) -> Vec<Vec<Vec<Value>>> {
    let extra = generate_homes(
        &HomesConfig::with_rows(count * BATCH_ROWS).with_seed(mix(seed, 0xA9)),
        &env.geography,
    );
    (0..count)
        .map(|b| {
            (b * BATCH_ROWS..(b + 1) * BATCH_ROWS)
                .map(|r| extra.row(r).expect("generated row"))
                .collect()
        })
        .collect()
}

/// Chunks of freshly generated workload queries for `log_queries`.
fn log_chunks(env: &Env, seed: u64, count: usize) -> Vec<Vec<NormalizedQuery>> {
    let strings = generate_workload(
        &WorkloadGenConfig::with_queries(count * LOG_CHUNK).with_seed(mix(seed, 0x10)),
        &env.geography,
    );
    let log = WorkloadLog::parse(
        strings.iter().map(String::as_str),
        env.relation.schema(),
        Some(TABLE),
    );
    log.queries().chunks(LOG_CHUNK).map(<[_]>::to_vec).collect()
}
