//! `lily-serve`: mapping-as-a-service.
//!
//! A hardened, dependency-free daemon that speaks length-prefixed
//! JSON-RPC over TCP: clients submit BLIF (or named benchmark
//! circuits) plus flow options, the server runs the mapping flow and
//! streams per-stage metrics back. The robustness machinery grown in
//! earlier iterations — cancellation tokens, stage deadlines, fault
//! plans, checkpoint/resume, the deterministic parallel runtime — is
//! composed here into one long-lived process:
//!
//! - **Admission control** ([`admission`]): a bounded queue; overload
//!   is a typed `rejected` frame, not latency or memory growth.
//! - **Multi-tenancy** ([`server`]): N concurrent jobs share the
//!   machine by collapsing each job to sequential execution, so the
//!   jobs are the parallelism and nothing oversubscribes.
//! - **Deadlines & disconnects**: a per-request [`CancelToken`]
//!   (child of the process-wide shutdown token) is installed as the
//!   ambient token during the job, so it reaches every stage attempt.
//! - **Warm cache** ([`cache`]): built libraries keyed by library
//!   fingerprint, with hit/miss counters.
//! - **Resumable jobs**: checkpoint manifests double as wire-level
//!   job state; kill the server mid-job, restart it, resend the
//!   request, and the flow resumes bit-identically.
//! - **Chaos** ([`protocol`]): any request may carry a fault plan,
//!   so live fault drills are ordinary traffic.
//! - **Durability** ([`journal`]): a write-ahead job journal; jobs
//!   orphaned by `kill -9` are re-admitted and auto-resumed on
//!   restart, no client participation required.
//! - **Resource governance**: memory-cost admission against a
//!   `memory_budget` (typed `rejected{reason:"memory"}` instead of
//!   OOM) plus a watchdog that cancels and parks stuck workers.
//!
//! [`CancelToken`]: lily_fault::CancelToken

pub mod admission;
pub mod cache;
pub mod client;
pub mod clock;
pub mod journal;
pub mod protocol;
pub mod server;
pub mod wire;

pub use admission::{Admission, SubmitError};
pub use cache::{library_fingerprint, CacheEntry, CacheStats, LibraryCache};
pub use client::{Client, ClientError};
pub use journal::{Journal, JournalRecord, Orphan, Replay};
pub use protocol::{Event, FaultSpec, MapRequest, ProbeRequest, ProtoError, Request, Source};
pub use server::{Server, ServerConfig, StatsSnapshot};
pub use wire::{WireError, DEFAULT_MAX_FRAME};

/// Fatal server-construction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The listen address could not be bound.
    Bind {
        /// The requested address.
        addr: String,
        /// The OS-level failure.
        message: String,
    },
    /// The write-ahead job journal could not be opened or replayed.
    Journal {
        /// The journal directory.
        path: String,
        /// The underlying I/O failure.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, message } => write!(f, "cannot bind `{addr}`: {message}"),
            ServeError::Journal { path, message } => {
                write!(f, "cannot open journal at `{path}`: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}
