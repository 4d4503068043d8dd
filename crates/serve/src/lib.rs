//! `rmm-serve`: the simulator as a long-lived service.
//!
//! Everything below the workload layer is bit-deterministic, so a
//! simulation cell is a *pure function* of `(protocol, scenario, seed,
//! flags)`. This crate exploits that twice:
//!
//! 1. **Serving** — a TCP daemon ([`Server`]) accepts JSONL requests,
//!    schedules engine work on a resident worker pool
//!    ([`rmm_fleet::ServicePool`]), and streams progress, trace events,
//!    and results back live, interleaved per connection.
//! 2. **Memoizing** — completed cells land in a content-addressed
//!    cache ([`CacheStore`]) keyed by a hash of exactly the inputs that
//!    determine the output. A repeated sweep is answered entirely from
//!    cache, byte-for-byte identical, with zero engine invocations —
//!    and the cache file survives restarts because it *is* a crash-safe
//!    fleet manifest.
//!
//! The [`client`] module carries the other half of the contract: a
//! serial in-process oracle plus a concurrent soak driver that
//! byte-diffs served responses against it, which is how CI proves the
//! service layer adds no nondeterminism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod proto;
pub mod server;

pub use cache::{cache_key, CacheStore};
pub use client::{
    fetch_metrics, local_lines, parse_metric, render_soak, request_shutdown, soak, submit_one,
    SoakReport, SoakSpec,
};
pub use proto::{
    canonical_result, compute_cell, encode, run_response_lines, Request, Response, RunRequest,
    ServeCell, PROTO_VERSION,
};
pub use server::{ServeConfig, Server, MAX_LINE_BYTES};
