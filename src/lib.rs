//! Umbrella crate for the PARMONC reproduction workspace: re-exports the
//! member crates so examples and integration tests have one import root.

pub use parmonc;
pub use parmonc_apps as apps;
pub use parmonc_mpi as mpi;
pub use parmonc_rng as rng;
pub use parmonc_rngtest as rngtest;
pub use parmonc_sde as sde;
pub use parmonc_stats as stats;
pub use parmonc_vr as vr;
