//! The workload: a bag of normalized past queries.

use qcat_data::Schema;
use qcat_sql::{parse_and_normalize, NormalizedQuery, SqlError};

/// A parsed workload log.
///
/// Real logs contain noise (queries against other tables, syntax the
/// subset does not cover), so parsing is lenient: malformed entries
/// are recorded with their line number and error rather than failing
/// the whole load — mirroring how the paper's preprocessing would skim
/// a production trace.
#[derive(Debug, Clone, Default)]
pub struct WorkloadLog {
    queries: Vec<NormalizedQuery>,
    skipped: Vec<(usize, SqlError)>,
}

impl WorkloadLog {
    /// Parse SQL strings against `schema`, keeping the well-formed
    /// ones. `table_filter`, when given, drops queries over other
    /// tables (they carry no signal about this relation's attributes).
    pub fn parse<'a, I>(strings: I, schema: &Schema, table_filter: Option<&str>) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut span = qcat_obs::span!("workload.log.parse");
        let mut queries = Vec::new();
        let mut skipped = Vec::new();
        let filter = table_filter.map(str::to_ascii_lowercase);
        for (i, sql) in strings.into_iter().enumerate() {
            match parse_and_normalize(sql, schema) {
                Ok(q) => {
                    if filter.as_deref().is_none_or(|t| q.table == t) {
                        queries.push(q);
                    }
                }
                Err(e) => skipped.push((i, e)),
            }
        }
        if qcat_obs::active() {
            span.set("parsed", queries.len());
            span.set("skipped", skipped.len());
        }
        WorkloadLog { queries, skipped }
    }

    /// Wrap already-normalized queries.
    pub fn from_normalized(queries: Vec<NormalizedQuery>) -> Self {
        WorkloadLog {
            queries,
            skipped: Vec::new(),
        }
    }

    /// Append already-normalized queries at the end of the log. The
    /// existing queries are not copied and the skipped entries stay.
    pub fn extend(&mut self, queries: impl IntoIterator<Item = NormalizedQuery>) {
        self.queries.extend(queries);
    }

    /// The usable queries.
    pub fn queries(&self) -> &[NormalizedQuery] {
        &self.queries
    }

    /// Number of usable queries — the paper's `N`.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when no queries parsed.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Entries that failed to parse, with their index in the input.
    pub fn skipped(&self) -> &[(usize, SqlError)] {
        &self.skipped
    }

    /// Split off the queries at `indices` (sorted, deduplicated
    /// internally), returning `(held_out, remaining)`.
    ///
    /// This implements the paper's cross-validation protocol
    /// (Section 6.2): the 100 synthetic explorations of a subset are
    /// removed from the workload before the count tables are built.
    pub fn split_held_out(&self, indices: &[usize]) -> (Vec<NormalizedQuery>, WorkloadLog) {
        let mut sorted: Vec<usize> = indices.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut held = Vec::with_capacity(sorted.len());
        let mut rest = Vec::with_capacity(self.queries.len().saturating_sub(sorted.len()));
        let mut it = sorted.iter().peekable();
        for (i, q) in self.queries.iter().enumerate() {
            if it.peek() == Some(&&i) {
                held.push(q.clone());
                it.next();
            } else {
                rest.push(q.clone());
            }
        }
        (held, WorkloadLog::from_normalized(rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_data::{AttrType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn parses_and_skips() {
        let log = WorkloadLog::parse(
            [
                "SELECT * FROM homes WHERE price < 100",
                "this is not sql",
                "SELECT * FROM homes WHERE neighborhood IN ('a')",
                "SELECT * FROM homes WHERE zipcode = 1", // unknown attr
            ],
            &schema(),
            None,
        );
        assert_eq!(log.len(), 2);
        assert_eq!(log.skipped().len(), 2);
        assert_eq!(log.skipped()[0].0, 1);
        assert_eq!(log.skipped()[1].0, 3);

        // Extending appends queries and keeps the skipped entries.
        let first = log.queries()[0].clone();
        let mut log = log;
        log.extend([first.clone()]);
        assert_eq!(log.len(), 3);
        assert_eq!(log.queries()[2], first);
        assert_eq!(log.skipped().len(), 2);
    }

    #[test]
    fn table_filter_drops_other_tables() {
        let log = WorkloadLog::parse(
            [
                "SELECT * FROM homes WHERE price < 100",
                "SELECT * FROM cars WHERE price < 100",
            ],
            &schema(),
            Some("HOMES"),
        );
        assert_eq!(log.len(), 1);
        assert!(log.skipped().is_empty());
    }

    #[test]
    fn split_held_out_partitions() {
        let log = WorkloadLog::parse(
            [
                "SELECT * FROM homes WHERE price < 1",
                "SELECT * FROM homes WHERE price < 2",
                "SELECT * FROM homes WHERE price < 3",
                "SELECT * FROM homes WHERE price < 4",
            ],
            &schema(),
            None,
        );
        let (held, rest) = log.split_held_out(&[1, 3]);
        assert_eq!(held.len(), 2);
        assert_eq!(rest.len(), 2);
        // Held-out query 1 constrained price < 2.
        let c = held[0].conditions.values().next().unwrap();
        assert!(matches!(
            c,
            qcat_sql::AttrCondition::Range(r) if r.hi == 2.0
        ));
        // Duplicate / unsorted indices tolerated.
        let (held2, rest2) = log.split_held_out(&[3, 1, 1]);
        assert_eq!(held2.len(), 2);
        assert_eq!(rest2.len(), 2);
    }

    #[test]
    fn empty_log() {
        let log = WorkloadLog::parse([], &schema(), None);
        assert!(log.is_empty());
        let (held, rest) = log.split_held_out(&[]);
        assert!(held.is_empty());
        assert!(rest.is_empty());
    }
}
