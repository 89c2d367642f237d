//! The metamut daemon (`metamut serve`): multi-tenant fuzzing as a
//! service.
//!
//! A single long-lived process owns a worker pool, one shared [`QueryDb`]
//! (so tenants fuzzing overlapping seeds reuse each other's UB-gate
//! function summaries), and a versioned on-disk [`store::Store`]. Tenants talk to it
//! over a newline-delimited JSON protocol ([`client::Client`]); the same
//! job views are mounted on the observatory HTTP listener.
//!
//! Fuzzing campaigns run on the stepped engine from `metamut-fuzzing`, so
//! the scheduler timeslices the pool fairly across tenants (least-served
//! job first) and can checkpoint any campaign between slices. Checkpoints
//! plus the store make the daemon restartable: campaigns interrupted by
//! SIGTERM resume bit-identically, one-shot jobs re-queue, and finished
//! results (corpus, merged triage report, telemetry snapshots) survive.
//!
//! [`QueryDb`]: metamut_simcomp::QueryDb

pub mod client;
pub mod daemon;
pub mod job;
pub mod store;

pub use client::Client;
pub use daemon::{signals, Daemon, DaemonConfig};
pub use job::{FuzzSpec, JobRecord, JobSpec};
pub use store::{DaemonInfo, Store, StoredCorpusEntry, STORE_VERSION};
