//! `spike-served`: a long-running analysis service over the Spike
//! reproduction's interprocedural dataflow engine.
//!
//! A post-link optimizer inside a build farm sees the same executables
//! over and over, usually differing by a handful of routines between
//! submissions. Re-running the whole PSG analysis per invocation throws
//! that locality away. This crate keeps the analysis *warm* across
//! requests:
//!
//! * [`cache::ProgramStore`] — a content-hash-keyed, byte-budgeted LRU of
//!   loaded programs with their converged analyses. Identical
//!   re-submissions are pure cache hits; near-identical ones are diffed
//!   ([`diff::diff_for_reanalysis`]) and re-solved incrementally through
//!   [`spike_core::AnalysisCache::reanalyze`] on just the dirty routines;
//!   concurrent requests for the same bytes coalesce into one analysis.
//! * [`proto`] — a std-only length-prefixed JSON+blob frame protocol over
//!   TCP and Unix sockets; one request per connection.
//! * [`server`] — bounded accept/work queues with explicit `busy`
//!   backpressure, per-request deadlines, frame-size caps, per-request
//!   panic isolation, and graceful drain on `shutdown`/SIGTERM.
//! * [`render`] — the deterministic report renderers shared with the
//!   local CLI, which is what makes `spike client <cmd>` byte-identical
//!   to `spike <cmd>`: both print exactly these strings, and everything
//!   non-deterministic (timings, cache disposition) travels separately
//!   as diagnostics.
//! * [`metrics`] — request/cache/queue counters and a fixed-bucket
//!   latency histogram, exported by the `stats` command as stable JSON.
//! * [`cluster`] — fleet mode: a consistent-hash [`cluster::Ring`] over
//!   image content hashes gives every image one owner shard (disjoint
//!   warm sets), and a daemon forwards each request for an image it does
//!   not own to the owner, so stdout is byte-identical whichever address
//!   serves. A routing front is a daemon that owns no key.
//! * [`snapshot`] — versioned, checksummed warm-cache persistence of the
//!   cached images (periodic and at drain); a restore re-analyzes them,
//!   all or nothing, with cold fallback, so a plain restart starts warm.
//! * `reactor` (Linux) — an epoll event loop that reads frames from
//!   nonblocking sockets and hands only complete requests to the worker
//!   pool, letting one instance hold thousands of concurrent
//!   connections; [`loadgen`] measures exactly that.

pub mod cache;
pub mod client;
pub mod cluster;
pub mod diff;
pub mod handler;
pub mod loadgen;
pub mod metrics;
pub mod proto;
#[cfg(target_os = "linux")]
pub(crate) mod reactor;
pub mod render;
pub mod server;
pub mod snapshot;

pub use cache::{CacheOutcome, ProgramStore};
pub use client::{ClientError, Endpoint};
pub use cluster::{Ring, ShardIdentity};
pub use proto::{Command, ErrorKind, LintFormat, QueryKind, Request, Response};
pub use server::{ServeOptions, Server};
