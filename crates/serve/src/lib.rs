#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! A long-running, multi-client characterization service.
//!
//! The paper's flow characterizes degradation-aware libraries on demand;
//! at production scale many tools (STA, synthesis, sign-off sweeps) want
//! the *same* libraries at the *same* time. This crate turns
//! [`flow::Characterizer`] into a daemon:
//!
//! - [`protocol`] — the `reliaware-serve-v1` newline-delimited JSON
//!   request/response format over a unix socket;
//! - [`server`] — the daemon: per-connection threads, a sharded
//!   library-level memo with in-flight request coalescing
//!   ([`flow::Coalescer`]), the shared arc-level [`flow::ArcCache`], and a
//!   bounded in-flight gate that sheds excess load with typed `overload`
//!   responses;
//! - [`client`] — a blocking client;
//! - [`loadgen`] — a deterministic concurrent load generator measuring
//!   throughput, latency percentiles and coalescing effectiveness.
//!
//! Served libraries are **bit-identical** to direct [`flow::Characterizer`]
//! output: both the Liberty writer and the protocol's number rendering use
//! shortest round-trip float formatting, so no precision is lost crossing
//! the wire regardless of client count, cache state or request order.
//!
//! # Example
//!
//! ```no_run
//! use serve::{CharRequest, Client, Response, ServeConfig, Server};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), flow::FlowError> {
//! let server = Server::bind(ServeConfig::new("/tmp/reliaware.sock"),
//!                           stdcells::CellSet::nangate45_like())?;
//! let handle = server.spawn();
//! let mut client = Client::connect_with_retry(handle.socket(), Duration::from_secs(5))?;
//! match client.characterize(CharRequest::new(&["INV_X1"], 1.0, 1.0, 10.0))? {
//!     Response::Ok { library, .. } => println!("{}", &library[..60]),
//!     other => eprintln!("not served: {other:?}"),
//! }
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use loadgen::{run_load, run_storm, LoadConfig, LoadReport, StormReport};
pub use protocol::{CharRequest, Op, Request, Response, ServedVia, StatsSnapshot, PROTOCOL};
pub use server::{ServeConfig, Server, ServerHandle};
