//! Served-request benchmark for qcat.
//!
//! ```text
//! servebench --workload browse|drilldown|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Replays seeded traffic through the public `qcat_serve::Server` API
//! from closed-loop client threads. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it replays the same requests
//! through each layer's public entry point and prints the per-layer
//! table. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any output-check
//! mismatch, or a layer table that does not add up, exits with 1.
//! See README.md next to this crate for every metric.

mod check;
mod drive;
mod env;
mod trace;

#[cfg(test)]
mod selftest;

use check::Verdict;
use drive::{run_phase, writes, Phase, SLICES};
use env::{setup, Env, Scale, SetupTimes, Traffic, Workload};
use qcat_data::IngestTable;
use qcat_serve::ServerConfig;
use std::fmt::Write as _;
use std::time::Instant;
use trace::{Replay, Tracer};

/// Set-ups per run; `setup_s` is their median. The untraced run makes
/// two before its timed phase and one after each of the phase, the
/// output check and the write probe: the host's speed drifts over
/// seconds, and five set-ups back to back (about 2.5 s) could all fall
/// inside one slow stretch.
const SETUPS: usize = 5;
/// Append + log pairs the write probe of `browse` and `drilldown`
/// times after their read phase (untraced, traced).
const PROBE_WRITES: (usize, usize) = (100, 40);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad --seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!("usage: servebench --workload browse|drilldown|ingest --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    // Before anything resolves the pool width (it is read once).
    std::env::set_var("QCAT_THREADS", env::POOL_WIDTH.to_string());
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    report.print();
    if !report.correct {
        std::process::exit(1);
    }
}

/// Set up `count` times; keep the last environment and the per-step
/// medians.
fn setups(seed: u64, count: usize, mut tracer: Option<&mut Tracer>) -> (Env, SetupTimes, Vec<f64>) {
    let mut all = Vec::with_capacity(count);
    let mut last = None;
    for k in 0..count {
        drop(last.take());
        let (env, times) = setup(
            Scale::STANDARD,
            seed,
            tracer.as_deref_mut().map(|t| (t, k as u32)),
        );
        all.push(times);
        last = Some(env);
    }
    let med = |f: fn(&SetupTimes) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    let times = SetupTimes {
        generate: med(|t| t.generate),
        log_parse: med(|t| t.log_parse),
        index_build: med(|t| t.index_build),
        register: med(|t| t.register),
    };
    let totals = all.iter().map(SetupTimes::total).collect();
    (last.expect("at least one set-up"), times, totals)
}

/// Everything one run prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    lines: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Operation counts behind `attempted` and `failed`.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn phase(&mut self, phase: &Phase) {
        for r in &phase.readers {
            self.attempted += r.serves;
            self.failed += r.errors + r.shed + r.degraded;
        }
        if let Some(w) = &phase.writer {
            self.writes(w);
        }
    }

    fn writes(&mut self, w: &drive::WriterLog) {
        self.attempted += (w.append_ns.len() + w.log_ns.len()) as u64;
        self.failed += w.errors;
    }

    fn verdict(&mut self, v: Verdict) {
        self.failed += v.mismatched;
    }
}

/// Check a phase's answers the way its workload allows.
fn check_phase(
    workload: Workload,
    env: &Env,
    server: &qcat_serve::Server,
    phase: &Phase,
    traffic: &Traffic,
    stats: &qcat_workload::WorkloadStatistics,
) -> Verdict {
    if workload.concurrent_writes() {
        check::check_ingest(server, &phase.readers, traffic)
    } else {
        check::check_static(&phase.readers, traffic, &env.relation, stats)
    }
}

/// The provenance line. `rss_mb` is the peak RSS through set-up and in
/// the timed phase, when the run measured them.
fn provenance(
    args: &Args,
    env: &Env,
    traffic: &Traffic,
    phase: &Phase,
    writes: usize,
    rss_mb: Option<(f64, f64)>,
) -> String {
    let cfg = ServerConfig::default();
    let rss = rss_mb.map_or(String::new(), |(setup, phase)| {
        format!(", \"setup_peak_rss_mb\": {setup:.1}, \"phase_peak_rss_mb\": {phase:.1}")
    });
    format!(
        "provenance: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"qcat_threads\": {}, \"git\": \"{}\", \"rows\": {}, \"log_queries\": {}, \"clients\": {}, \
         \"requests\": {}, \"appends\": {}, \"distinct_sql\": {}, \"sequence_hash\": \"{:016x}\", \
         \"result_cache_bytes\": {}, \"tree_cache_bytes\": {}{rss}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        qcat_pool::resolve_threads(0),
        git_describe(),
        env.relation.len(),
        env.log.len(),
        args.workload.readers() + usize::from(args.workload.concurrent_writes()),
        phase.serves(),
        writes,
        traffic.sql.len(),
        traffic.hash(),
        cfg.result_cache_bytes,
        cfg.tree_cache_bytes,
    )
}

fn untraced(args: &Args) -> Report {
    let (env, _, mut setup_totals) = setups(args.seed, 2, None);
    // One more set-up's time; the environment is dropped at once.
    let one_setup = || setup(Scale::STANDARD, args.seed, None).1.total();
    let set_up = Instant::now();
    let traffic = Traffic::generate(args.workload, &env, args.seed);
    let generated = Instant::now();
    // The peak so far is set-up's; restart it so that `peak_rss_mb`
    // covers the timed phase alone.
    let setup_rss_mb = peak_rss_mb();
    let reset = reset_peak_rss();
    let phase = run_phase(args.workload, &env.server, &traffic, args.seconds, None);
    let phase_rss_mb = peak_rss_mb();
    setup_totals.push(one_setup());
    let (result_bytes, tree_bytes) = env.server.cache_bytes();
    let mut tally = Tally::default();
    tally.phase(&phase);
    let stats = env.stats();
    let checking = Instant::now();
    let verdict = check_phase(args.workload, &env, &env.server, &phase, &traffic, &stats);
    tally.verdict(verdict);
    let checked = Instant::now();
    setup_totals.push(one_setup());
    let probing = Instant::now();
    let probe;
    let writer = match phase.writer {
        Some(ref w) => w,
        None => {
            probe = writes(&env.server, &traffic, drive::rested(PROBE_WRITES.0), None);
            tally.writes(&probe);
            &probe
        }
    };
    let probed = Instant::now();
    setup_totals.push(one_setup());
    debug_assert_eq!(setup_totals.len(), SETUPS);
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let wall = format!(
        "wall time (s): {:.1} set-ups, {:.1} traffic, {:.1} phase, {:.1} output check, {:.1} write probe",
        setup_totals.iter().sum::<f64>(),
        secs(set_up, generated),
        phase.seconds,
        secs(checking, checked),
        secs(probing, probed),
    );

    let mut lat: Vec<u64> = phase
        .readers
        .iter()
        .flat_map(|r| r.lat_ns.iter().copied())
        .collect();
    lat.sort_unstable();
    let tenths = |ns: &[u64]| -> Vec<f64> {
        let chunk = ns.len().div_ceil(10).max(1);
        ns.chunks(chunk)
            .map(|c| median(&c.iter().map(|&v| v as f64 / 1e6).collect::<Vec<_>>()))
            .collect()
    };
    let write_drift = format!(
        "median append, log_queries latency (ms) by tenth of the writes, in order: {:.1?}, {:.1?}",
        tenths(&writer.append_ns),
        tenths(&writer.log_ns)
    );
    let mut append = writer.append_ns.clone();
    append.sort_unstable();
    let mut log = writer.log_ns.clone();
    log.sort_unstable();
    let ms = |v: u64| v as f64 / 1e6;
    let serves = phase.serves();
    let correct = verdict.mismatched == 0;
    let mut lines = vec![provenance(
        args,
        &env,
        &traffic,
        &phase,
        writer.append_ns.len(),
        Some((setup_rss_mb, phase_rss_mb)),
    )];
    lines.push(format!(
        "{}: {} serves in {:.3} s ({} latency samples, the first of each reader), outcomes {:?}",
        args.workload.name(),
        serves,
        phase.seconds,
        lat.len(),
        outcome_mix(&phase)
    ));
    lines.push(format!(
        "serve latency (ms) at p10/p25/p50/p75/p90/p99: {:.4?}",
        [0.10, 0.25, 0.50, 0.75, 0.90, 0.99].map(|q| ms(quantile(&lat, q)))
    ));
    let per_slice = slice_rates(&phase, args.seconds);
    lines.push(format!(
        "serves per second by slice of the phase: {per_slice:.1?}"
    ));
    lines.push(format!(
        "caches after the reads: {result_bytes} result bytes, {tree_bytes} tree bytes"
    ));
    if let Err(e) = reset {
        lines.push(format!(
            "warning: the peak RSS could not be reset ({e}), so peak_rss_mb includes set-up"
        ));
    }
    lines.push(format!(
        "writes: {} appends, {} log_queries ({}), kept {} evicted {}",
        writer.append_ns.len(),
        writer.log_ns.len(),
        if args.workload.concurrent_writes() {
            "beside the reads"
        } else {
            "probe after the reads"
        },
        writer.kept,
        writer.evicted
    ));
    lines.push(format!(
        "output check: {} answers compared, {} mismatched requests",
        verdict.checked, verdict.mismatched
    ));
    lines.push(write_drift);
    lines.push(wall);
    if serves < 1000 {
        lines.push(format!(
            "warning: {serves} serves, fewer than the 1000 p99 needs"
        ));
    }
    if writer.append_ns.len() < 100 {
        lines.push(format!(
            "warning: {} appends, fewer than the 100 p90 needs",
            writer.append_ns.len()
        ));
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    let metrics = vec![
        ("setup_s", median(&setup_totals), "s"),
        ("serve_qps", median(&per_slice), "1/s"),
        ("serve_p50_ms", ms(quantile(&lat, 0.50)), "ms"),
        ("serve_p99_ms", ms(quantile(&lat, 0.99)), "ms"),
        ("append_p50_ms", ms(quantile(&append, 0.50)), "ms"),
        ("append_p90_ms", ms(quantile(&append, 0.90)), "ms"),
        ("log_p50_ms", ms(quantile(&log, 0.50)), "ms"),
        ("peak_rss_mb", phase_rss_mb, "MiB"),
    ];
    lines.push(format!(
        "failed_frac: {failed_frac} ({} of {} operations)",
        tally.failed, tally.attempted
    ));
    lines.push(metric_table(&metrics));
    Report {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        lines,
        metrics,
    }
}

fn traced(args: &Args) -> Report {
    let run_epoch = Instant::now();
    let mut main_tr = Tracer::new(run_epoch, 250, 1_000);
    let (env, setup_med, setup_totals) = setups(args.seed, SETUPS, Some(&mut main_tr));
    let mut stats_builds = Vec::new();
    let mut stats = None;
    for _ in 0..3 {
        let t = Instant::now();
        stats = Some(env.stats());
        stats_builds.push(t.elapsed().as_secs_f64());
    }
    let stats = stats.expect("statistics built");
    let traffic = Traffic::generate(args.workload, &env, args.seed);
    let half = args.seconds / 2.0;

    // Phase A: untraced, the latency baseline for the overhead figure.
    let mut tally = Tally::default();
    let plain = run_phase(args.workload, &env.server, &traffic, half, None);
    tally.phase(&plain);
    let mut verdict = check_phase(args.workload, &env, &env.server, &plain, &traffic, &stats);

    // Phase B: the same requests on a fresh server, each followed by
    // its layer replay.
    let server = env.fresh_server();
    let replay = Replay::new(
        IngestTable::new(env.relation.clone()),
        env.stats(),
        ServerConfig::default(),
    );
    let mut phase = run_phase(args.workload, &server, &traffic, half, Some(&replay));
    tally.phase(&phase);
    let (result_bytes, tree_bytes) = server.cache_bytes();
    verdict.add(check_phase(
        args.workload,
        &env,
        &server,
        &phase,
        &traffic,
        &stats,
    ));
    tally.verdict(verdict);
    let mut tr = phase.tracer.take().expect("traced phase has spans");
    let probe;
    let writer = match phase.writer {
        Some(ref w) => w,
        None => {
            probe = writes(
                &server,
                &traffic,
                drive::rested(PROBE_WRITES.1),
                Some(&mut tr),
            );
            tally.writes(&probe);
            &probe
        }
    };
    replay.replay_writes(&traffic, writer.append_ns.len(), &mut tr);
    tr.merge(main_tr);

    let serves = phase.serves() as f64;
    let serve_total = tr.total("serve");
    let per_req = |name: &str| tr.total(name).sum as f64 / 1e6 / serves.max(1.0);
    let per_call = |name: &str| {
        let a = tr.total(name);
        a.sum as f64 / 1e6 / a.calls.max(1) as f64
    };
    let ratio = |n: u64| n as f64 / serves.max(1.0);
    let mut correct = verdict.mismatched == 0;
    let mut lines = vec![provenance(
        args,
        &env,
        &traffic,
        &phase,
        writer.append_ns.len(),
        None,
    )];
    let table = match trace::serve_table(&tr) {
        Ok(t) => t,
        Err(e) => {
            correct = false;
            lines.push(format!("layer table does not add up: {e}"));
            Vec::new()
        }
    };
    let share = |name: &str| {
        table
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.share)
    };

    // Trace overhead: traced serve p50 over the untraced p50 of the
    // same request prefix of each reader.
    let mut traced_lat: Vec<u64> = phase
        .readers
        .iter()
        .flat_map(|r| r.lat_ns.iter().copied())
        .collect();
    let mut plain_lat: Vec<u64> = plain
        .readers
        .iter()
        .zip(&phase.readers)
        .flat_map(|(p, t)| p.lat_ns.iter().take(t.lat_ns.len()).copied())
        .collect();
    traced_lat.sort_unstable();
    plain_lat.sort_unstable();
    let overhead =
        quantile(&traced_lat, 0.5) as f64 / quantile(&plain_lat, 0.5).max(1) as f64 - 1.0;

    let append_unattr = per_call("serve.append") - per_call("data.append");
    let log_unattr = per_call("serve.log") - per_call("workload.absorb");
    if append_unattr < 0.0 {
        // The replayed append runs after the server's, not inside it,
        // so when the sweep costs less than their noise the difference
        // reads below zero. It is reported as measured.
        lines.push(format!(
            "note: the replayed append took {:.3} ms longer than Server::append_rows",
            -append_unattr
        ));
    }
    let tracked = writer.kept + writer.evicted;
    let kept_ratio = if tracked == 0 {
        0.0
    } else {
        writer.kept as f64 / tracked as f64
    };
    let unattributed_ms = table
        .iter()
        .find(|r| r.name == "serve.unattributed")
        .map_or(0.0, |r| r.total_ns as f64 / 1e6 / serves.max(1.0));
    let metrics = vec![
        ("core.categorize_ms", per_req("core.categorize"), "ms"),
        (
            "core.categorize_rows_in",
            tr.mean_quantity("core.categorize_rows_in"),
            "rows",
        ),
        (
            "core.tree_nodes",
            tr.mean_quantity("core.tree_nodes"),
            "count",
        ),
        ("exec.execute_ms", per_req("exec.execute"), "ms"),
        ("exec.rows_out", tr.mean_quantity("exec.rows_out"), "rows"),
        ("exec.residual_ms", per_req("exec.residual"), "ms"),
        (
            "exec.residual_rows_in",
            tr.mean_quantity("exec.residual_rows_in"),
            "rows",
        ),
        (
            "exec.residual_rows_out",
            tr.mean_quantity("exec.residual_rows_out"),
            "rows",
        ),
        ("core.render_ms", per_req("core.render"), "ms"),
        (
            "core.render_bytes",
            tr.mean_quantity("core.render_bytes"),
            "bytes",
        ),
        ("sql.parse_ms", per_req("sql.parse"), "ms"),
        ("sql.normalize_ms", per_req("sql.normalize"), "ms"),
        ("serve.fingerprint_ms", per_req("serve.fingerprint"), "ms"),
        ("serve.unattributed_ms", unattributed_ms, "ms"),
        (
            "serve.tree_hit_ratio",
            ratio(phase.outcome_count("tree_hit")),
            "ratio",
        ),
        (
            "serve.result_hit_ratio",
            ratio(phase.outcome_count("result_hit")),
            "ratio",
        ),
        (
            "serve.containment_hit_ratio",
            ratio(phase.outcome_count("containment_hit")),
            "ratio",
        ),
        (
            "serve.cold_ratio",
            ratio(phase.outcome_count("cold")),
            "ratio",
        ),
        (
            "serve.coalesced",
            phase.outcome_count("coalesced") as f64,
            "count",
        ),
        (
            "serve.cache_bytes",
            (result_bytes + tree_bytes) as f64,
            "bytes",
        ),
        ("data.append_ms", per_call("data.append"), "ms"),
        ("serve.append_unattributed_ms", append_unattr, "ms"),
        ("serve.invalidate.kept_ratio", kept_ratio, "ratio"),
        ("workload.absorb_ms", per_call("workload.absorb"), "ms"),
        ("serve.log_unattributed_ms", log_unattr, "ms"),
        ("datagen.generate_s", setup_med.generate, "s"),
        ("data.index_build_ms", setup_med.index_build * 1e3, "ms"),
        ("workload.stats_build_ms", median(&stats_builds) * 1e3, "ms"),
        ("sql.parse.share", share("sql.parse"), "ratio"),
        ("sql.normalize.share", share("sql.normalize"), "ratio"),
        (
            "serve.fingerprint.share",
            share("serve.fingerprint"),
            "ratio",
        ),
        ("exec.execute.share", share("exec.execute"), "ratio"),
        ("exec.residual.share", share("exec.residual"), "ratio"),
        ("core.categorize.share", share("core.categorize"), "ratio"),
        ("core.render.share", share("core.render"), "ratio"),
        (
            "serve.unattributed.share",
            share("serve.unattributed"),
            "ratio",
        ),
        ("bench.trace_overhead_frac", overhead, "ratio"),
    ];
    lines.push(format!(
        "{} traced: {} serves in {:.3} s, serve time {:.3} ms total, outcomes {:?}, donor fallbacks {}",
        args.workload.name(),
        phase.serves(),
        phase.seconds,
        serve_total.sum as f64 / 1e6,
        outcome_mix(&phase),
        replay.donor_fallbacks.load(std::sync::atomic::Ordering::Relaxed)
    ));
    lines.push(format!(
        "setup median {:.4} s over {} set-ups; output check: {} answers compared, {} mismatched requests",
        median(&setup_totals),
        SETUPS,
        verdict.checked,
        verdict.mismatched
    ));
    lines.push(format!(
        "{:<24} {:>12} {:>10} {:>10} {:>8}",
        "layer", "total_ms", "calls", "ms/serve", "share"
    ));
    for row in &table {
        lines.push(format!(
            "{:<24} {:>12.3} {:>10} {:>10.5} {:>7.2}%",
            row.name,
            row.total_ns as f64 / 1e6,
            row.calls,
            row.total_ns as f64 / 1e6 / serves.max(1.0),
            row.share * 100.0
        ));
    }
    lines.push(format!(
        "{:<24} {:>12.3} {:>10} {:>10.5} {:>7.2}%",
        "total (serve)",
        serve_total.sum as f64 / 1e6,
        serve_total.calls,
        serve_total.sum as f64 / 1e6 / serves.max(1.0),
        table.iter().map(|r| r.share).sum::<f64>() * 100.0
    ));
    let spans = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
    match tr.write_spans(&spans) {
        Ok(()) => lines.push(format!(
            "spans: {} kept, written to {}",
            tr.spans.len(),
            spans.display()
        )),
        Err(e) => lines.push(format!("spans not written: {e}")),
    }
    lines.push(metric_table(&metrics));
    Report {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        lines,
        metrics,
    }
}

/// Serves per second in each equal slice of a phase `seconds` long.
fn slice_rates(phase: &Phase, seconds: f64) -> Vec<f64> {
    let width = seconds / SLICES as f64;
    (0..SLICES)
        .map(|k| phase.readers.iter().map(|r| r.slices[k]).sum::<u64>() as f64 / width)
        .collect()
}

fn outcome_mix(phase: &Phase) -> Vec<(&'static str, u64)> {
    [
        "tree_hit",
        "result_hit",
        "containment_hit",
        "cold",
        "coalesced",
        "shed",
    ]
    .into_iter()
    .map(|n| (n, phase.outcome_count(n)))
    .filter(|(_, c)| *c > 0)
    .collect()
}

fn metric_table(metrics: &[(&'static str, f64, &'static str)]) -> String {
    let mut out = String::new();
    for (name, value, unit) in metrics {
        let _ = writeln!(out, "  {name:<32} {value:>14.6} {unit}");
    }
    out.trim_end().to_string()
}

/// Median of unsorted values (0 when empty).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of sorted values (0 when empty).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart `VmHWM` from the current resident set.
fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// `git describe --always --dirty` of the checkout, when it is one.
fn git_describe() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
