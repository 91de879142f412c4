//! The one-stop import for PARMONC users.
//!
//! Everything a typical simulation program touches — the builder entry
//! point, the realization trait and its closure adapter, the report and
//! error types, and the run-shaping selectors ([`Exchange`],
//! [`Resume`], [`Transport`]) — in a single glob:
//!
//! ```no_run
//! use parmonc::prelude::*;
//!
//! let report = Parmonc::builder(1, 1)
//!     .max_sample_volume(10_000)
//!     .processors(4)
//!     .transport(Transport::Threads)
//!     .output_dir("parmonc_run")
//!     .run(RealizeFn::new(|rng, out| out[0] = rng.next_f64()))?;
//! println!("mean = {}", report.summary.means[0]);
//! # Ok::<(), ParmoncError>(())
//! ```
//!
//! A multi-host run splits the same builder across machines: the
//! collector listens, each worker joins and must build the *same*
//! configuration (enforced by the wire handshake — see
//! `docs/cluster.md`). Networking is configured through one
//! [`NetOptions`] value:
//!
//! ```no_run
//! use parmonc::prelude::*;
//!
//! // Collector host: rank 0 simulates, collects, and serves joiners.
//! let report = Parmonc::builder(1, 1)
//!     .max_sample_volume(10_000)
//!     .processors(4)
//!     .net(NetOptions::listen("0.0.0.0:7070"))
//!     .output_dir("parmonc_run")
//!     .run(RealizeFn::new(|rng, out| out[0] = rng.next_f64()))?;
//! # Ok::<(), ParmoncError>(())
//! ```
//!
//! ```no_run
//! use parmonc::prelude::*;
//!
//! // Each worker host: dial in, get leased a rank, work the quota.
//! Parmonc::builder(1, 1)
//!     .max_sample_volume(10_000)
//!     .processors(4)
//!     .net(NetOptions::join("collector-host:7070"))
//!     .output_dir("scratch")
//!     .run_worker(RealizeFn::new(|rng, out| out[0] = rng.next_f64()))?;
//! # Ok::<(), ParmoncError>(())
//! ```
//!
//! Deliberately *not* here: the file-format, message and compat
//! internals (`files`, `messages`, `compat`), the raw RNG machinery
//! beyond what `RealizeFn` closures receive, and the `parmonc_ipc`
//! re-execution plumbing. Reach into the named modules for those.

pub use crate::config::{Exchange, NetOptions, ParmoncBuilder, Resume, RunConfig, Transport};
pub use crate::error::ParmoncError;
pub use crate::realize::{Realize, RealizeFn};
pub use crate::runner::{Parmonc, RunReport};
pub use parmonc_ipc::ReconnectPolicy;
