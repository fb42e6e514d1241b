//! Serving quickstart: stand up a `qcat_serve::Server`, serve the same
//! query three times (cold, cached, re-spelled), then log new workload
//! queries and watch the caches invalidate.
//!
//! ```text
//! cargo run --example serve_quickstart
//! ```
//!
//! Chaos mode: set `QCAT_FAULT` (e.g.
//! `QCAT_FAULT='pool.task:error:p=0.5:seed=1'`) and the same run
//! doubles as a fault drill — every serve must still end in an answer
//! (possibly degraded) or a structured, printed error; the
//! cache-outcome assertions only apply to fault-free runs.

use qcat::data::{AttrType, Field, RelationBuilder, Schema};
use qcat::serve::{Served, ServeOutcome, Server, ServerConfig, SpeculateConfig};
use qcat::sql::parse_and_normalize;
use qcat::workload::{PreprocessConfig, WorkloadLog};

/// One serve, narrated. Fault-free runs propagate errors; under
/// chaos a structured error is a legitimate outcome and is printed
/// instead, so the drill keeps going.
fn serve_step(
    server: &Server,
    label: &str,
    sql: &str,
    chaos: bool,
) -> Result<Option<Served>, Box<dyn std::error::Error>> {
    match server.serve(sql) {
        Ok(s) => {
            let note = match s.tree.degraded() {
                Some(reason) => format!(", degraded: {reason}"),
                None => String::new(),
            };
            println!("{label} {:?} ({} rows{note})", s.outcome, s.rows);
            Ok(Some(s))
        }
        Err(e) if chaos => {
            println!("{label} structured error: {e}");
            Ok(None)
        }
        Err(e) => Err(e.into()),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 0. Arm fault injection when QCAT_FAULT is set; outcome
    //    assertions below are skipped under chaos because injected
    //    faults legitimately change which path answers.
    let chaos = qcat::fault::init_from_env().map_err(|e| format!("QCAT_FAULT: {e}"))?;
    if chaos {
        println!("chaos mode: QCAT_FAULT armed\n");
    }
    // Tracing mirrors the repro binary (`QCAT_TRACE=json` +
    // `QCAT_TRACE_FILE`), so a chaos drill leaves an auditable trace
    // for `qcat-lint --audit-trace`.
    qcat::obs::init_from_env();

    // 1. A home-listing table. `Server::register_table` will build its
    //    secondary indexes, so selective queries skip the scan.
    let schema = Schema::new(vec![
        Field::new("neighborhood", AttrType::Categorical),
        Field::new("price", AttrType::Float),
        Field::new("bedroomcount", AttrType::Int),
    ])?;
    let mut builder = RelationBuilder::new(schema.clone());
    let hoods = ["Redmond", "Bellevue", "Issaquah", "Sammamish", "Seattle"];
    for i in 0..2_000i64 {
        builder.push_row(&[
            hoods[(i % 5) as usize].into(),
            (180_000.0 + (i as f64 * 7_919.0) % 150_000.0).into(),
            (i % 5 + 1).into(),
        ])?;
    }
    let homes = builder.finish()?;

    // 2. Past searches drive the categorization statistics.
    let mut past = Vec::new();
    for i in 0..60 {
        past.push(format!(
            "SELECT * FROM homes WHERE neighborhood IN ('{}')",
            hoods[i % 4]
        ));
        let lo = 180_000 + (i % 10) * 12_000;
        past.push(format!(
            "SELECT * FROM homes WHERE price BETWEEN {lo} AND {}",
            lo + 30_000
        ));
    }
    let log = WorkloadLog::parse(past.iter().map(String::as_str), &schema, Some("homes"));
    let prep = PreprocessConfig::new().infer_missing(&homes, 100);

    // 3. The server owns catalog + statistics + caches.
    let server = Server::new(ServerConfig::default());
    server.register_table("homes", homes, log, prep)?;

    // 4. Serve a broad query: cold on first contact...
    let sql = "SELECT * FROM homes WHERE price BETWEEN 200000 AND 280000";
    let served = serve_step(&server, "first serve: ", sql, chaos)?;
    if !chaos {
        assert_eq!(served.as_ref().map(|s| s.outcome), Some(ServeOutcome::Cold));
    }

    // ...cached on the second...
    let again = serve_step(&server, "second serve:", sql, chaos)?;
    if !chaos {
        assert_eq!(again.map(|s| s.outcome), Some(ServeOutcome::TreeCacheHit));
    }

    // ...and still cached under a different spelling of the same
    // normalized query (case, literal format, conjunct order).
    let respelled = serve_step(
        &server,
        "re-spelled:  ",
        "select * from HOMES where PRICE between 2e5 and 280000.0",
        chaos,
    )?;
    if !chaos {
        assert_eq!(respelled.map(|s| s.outcome), Some(ServeOutcome::TreeCacheHit));
    }

    if let Some(s) = &served {
        println!("\ncategory tree:\n{}", s.rendered);
    }

    // 5. Drill down: the refined query was never served, but the
    //    broad answer from step 4 provably contains it, so the server
    //    post-filters those cached rows instead of re-executing.
    let refined = serve_step(
        &server,
        "refinement:  ",
        "SELECT * FROM homes WHERE price BETWEEN 200000 AND 280000 \
         AND bedroomcount >= 4",
        chaos,
    )?;
    if !chaos {
        assert_eq!(
            refined.map(|s| s.outcome),
            Some(ServeOutcome::ContainmentHit)
        );
    }

    // 6. Idle-time speculation: precompute the workload's hottest
    //    trees from the background pool, so the next arrival is a
    //    cache hit before it is ever asked.
    let report = server.speculate("homes", &SpeculateConfig::default())?;
    println!(
        "speculation: {} considered, {} filled, {} coalesced",
        report.considered, report.filled, report.coalesced
    );
    let hot = serve_step(
        &server,
        "hot serve:   ",
        "SELECT * FROM homes WHERE neighborhood IN ('Redmond')",
        chaos,
    )?;
    if !chaos {
        assert!(report.filled > 0, "idle pass should have filled trees");
        assert_eq!(hot.map(|s| s.outcome), Some(ServeOutcome::TreeCacheHit));
    }

    // 7. New workload arrivals are absorbed into the statistics and
    //    bump the stats epoch: every cached *tree* for the table goes
    //    stale (trees depend on the probability estimates), but cached
    //    result sets survive — the data did not change — so the repeat
    //    serve re-renders its tree from the cached rows instead of
    //    re-executing the query.
    let fresh = parse_and_normalize(
        "SELECT * FROM homes WHERE bedroomcount IN (4, 5)",
        &schema,
    )?;
    server.log_queries("homes", vec![fresh])?;
    println!("epoch after log_queries: {:?}", server.epoch("homes"));
    let after = serve_step(&server, "after stats refresh:", sql, chaos)?;
    if !chaos {
        assert_eq!(after.map(|s| s.outcome), Some(ServeOutcome::ResultCacheHit));
    }

    // Flush the JSONL trace (if one was armed) so the file audits
    // clean under `qcat-lint --audit-trace`.
    qcat::obs::finish_global();
    Ok(())
}
