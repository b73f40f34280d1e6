//! Statistical toolkit for the IPFS monitoring suite.
//!
//! * [`ecdf`] — empirical CDFs and quantile–quantile data (Figs. 3 and 5),
//! * [`descriptive`] — summaries used in the experiment reports,
//! * [`powerlaw`] — Clauset–Shalizi–Newman power-law fitting and the bootstrap
//!   goodness-of-fit test the paper uses to reject the power-law hypothesis
//!   for content popularity (Sec. V-E),
//! * [`estimators`] — the two network-size estimators of Sec. IV-C.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod descriptive;
pub mod ecdf;
pub mod estimators;
pub mod powerlaw;

pub use descriptive::{summarize, summarize_stream, StreamSummary, Summary};
pub use ecdf::{qq_against_uniform, qq_uniform_deviation, Ecdf};
pub use estimators::{committee_estimate, two_monitor_estimate, EstimateError};
pub use powerlaw::{fit_power_law, goodness_of_fit, GoodnessOfFit, PowerLawFit};
