//! PARMONC — massively parallel Monte Carlo simulation without MPI in
//! user code.
//!
//! This crate is the library proper of the PARMONC reproduction
//! (Marchenko, PaCT 2011): the user writes a *sequential* routine that
//! simulates a single realization of a random object (the paper's
//! `difftraj`), hands it to [`Parmonc`], and the runtime
//!
//! * initializes the parallel RNG and assigns every processor and every
//!   realization its own leapfrogged subsequence (Section 2.4),
//! * distributes realizations across processors with no load balancing
//!   needed — all processors work independently and exchange data
//!   asynchronously (Section 2.2),
//! * periodically ships subtotal sums `(Σζ, Σζ², l_m)` to rank 0, which
//!   averages them by formula (5) and saves the result matrices with
//!   absolute/relative errors to files (Sections 2.2, 3.6),
//! * supports resuming a terminated simulation with automatic averaging
//!   of the previous results (`res = 1`, Section 3.2), and
//! * ships `manaver`/`genparam` equivalents (Sections 3.4, 3.5).
//!
//! # The paper's example, in this API
//!
//! The C listing in Section 4 of the paper becomes:
//!
//! ```no_run
//! use parmonc::{Parmonc, RealizeFn};
//!
//! // difftraj: simulate one realization, fill the 1000x2 matrix.
//! let difftraj = RealizeFn::new(|rng, out| {
//!     for entry in out.iter_mut() {
//!         *entry = rng.next_f64(); // stand-in for the SDE trajectory
//!     }
//! });
//!
//! let report = Parmonc::builder(1000, 2)
//!     .max_sample_volume(1_000_000_000)
//!     .seqnum(2)
//!     .processors(8)
//!     .pass_period(std::time::Duration::from_secs(10 * 60))   // perpass
//!     .averaging_period(std::time::Duration::from_secs(20 * 60)) // peraver
//!     .output_dir("parmonc_run")
//!     .run(difftraj)?;
//! println!("L = {}, eps_max = {}", report.total_volume, report.summary.eps_max);
//! # Ok::<(), parmonc::ParmoncError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod compat;
pub mod config;
pub mod error;
pub mod files;
pub mod genparam;
pub mod manaver;
pub mod messages;
pub mod prelude;
pub mod realize;
pub mod runner;

pub use config::{Exchange, NetOptions, ParmoncBuilder, Resume, RunConfig, Transport};
pub use error::ParmoncError;
pub use files::ResultsDir;
pub use parmonc_ipc::ReconnectPolicy;
pub use realize::{DrawBatch, Realize, RealizeFn};
pub use runner::{Parmonc, RunReport};

pub use parmonc_rng::{LeapConfig, RealizationStream, StreamHierarchy, StreamId};
pub use parmonc_stats::{MatrixAccumulator, MatrixSummary};

/// Re-export of the socket transport crate, for callers that need the
/// process backend's re-execution plumbing directly: [`ipc::is_worker`] to guard
/// destructive test setup against running again in a re-executed
/// worker, and [`ipc::WORKER_FLAG`] so argument parsers can strip the
/// hidden re-execution marker. Selecting the backend itself goes
/// through [`ParmoncBuilder::transport`] with [`Transport`].
pub use parmonc_ipc as ipc;
