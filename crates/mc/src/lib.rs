//! Seeded, parallel Monte Carlo orchestration.
//!
//! The paper's evaluation rests on 500-run Monte Carlo campaigns per
//! configuration (Figs 11–13, Table 3). This crate provides the runner:
//!
//! * [`dist`] — statistical distributions built on our own Box–Muller
//!   normal (the approved dependency list has `rand` but not `rand_distr`),
//! * [`engine`] — a deterministic parallel runner: every run gets an
//!   independent RNG derived from `(seed, run_index)`, so results are
//!   bit-identical regardless of thread count or scheduling,
//! * [`sweep`] — parameter sweeps of Monte Carlo campaigns,
//! * [`progress`] — the live campaign status line.
//!
//! A fallible campaign ([`MonteCarlo::try_run`], [`sweep::sweep_mc_try`])
//! isolates each run's panics, brackets it for `oxterm-chaos` fault
//! injection and writes one post-mortem bundle per failed run; a failed
//! run is returned in place and never retried.
//!
//! # Examples
//!
//! ```
//! use oxterm_mc::engine::MonteCarlo;
//! use oxterm_mc::dist::{Distribution, Normal};
//!
//! let mc = MonteCarlo::new(1000, 42);
//! let samples = mc.run(|_, rng| Normal::new(5.0, 0.1).sample(rng));
//! let mean = samples.iter().sum::<f64>() / samples.len() as f64;
//! assert!((mean - 5.0).abs() < 0.02);
//! ```

#![forbid(unsafe_code)]

pub mod convergence;
pub mod corners;
pub mod dist;
pub mod engine;
pub mod progress;
pub mod sweep;

pub use engine::{MonteCarlo, RunError};
