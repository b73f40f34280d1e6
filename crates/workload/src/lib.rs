//! Workload and scenario generation for the IPFS monitoring suite.
//!
//! Experiments need realistic populations, content catalogs and request
//! streams; this crate generates all three from compact configurations:
//!
//! * [`popularity`] — content-popularity models (Zipf, and the
//!   skewed-but-not-power-law mixture used to reproduce Fig. 5),
//! * [`catalog`] — content catalogs with the Table I multicodec mix and a
//!   configurable unresolvable fraction,
//! * [`population`] — node populations (server/client split, churn, country
//!   mix, client-version adoption, gateway operators),
//! * [`requests`] — node-initiated and gateway HTTP request processes,
//! * [`scenario`] — presets and the end-to-end
//!   [`scenario::build_scenario_lazy`]: a scenario plus the event sources
//!   that draw its requests while it runs.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod popularity;
pub mod population;
pub mod requests;
pub mod scenario;

pub use catalog::{generate_catalog, CatalogConfig, MulticodecMix};
pub use popularity::{PopularityModel, PopularitySampler};
pub use population::{generate_population, OperatorConfig, Population, PopulationConfig};
pub use requests::{drain_workload_sources, lazy_workload_sources, RequestWorkloadConfig};
pub use scenario::{build_scenario_lazy, MonitorConfig, ScenarioConfig};
