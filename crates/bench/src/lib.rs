//! # semrec-bench — experiment harness
//!
//! One module per reproduced experiment (see DESIGN.md §3 for the index).
//! The `experiments` binary dispatches on experiment id and prints the
//! reproduced table/series. Wall-clock timing a PR may cite is measured in
//! one place only, the stand-alone `perf/` package (see `perf/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod scale;

pub use scale::Scale;
