#![warn(missing_docs)]

//! Query execution for the qcat workspace.
//!
//! The paper categorizes *the result set of a query Q*. This crate
//! turns a SQL string (or a pre-normalized query) into a
//! [`ResultSet`]: the base relation plus the matching row ids, which
//! is precisely the representation the categorizer consumes as the
//! root `tset`.

pub mod executor;
pub mod plan;
pub mod result;

pub use executor::{
    execute, execute_normalized, execute_normalized_with, execute_normalized_with_threads,
    execute_residual, ExecError, Executor,
};
pub use plan::{AccessPath, PlanExplain};
pub use result::ResultSet;
