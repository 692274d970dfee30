//! PQE-as-a-service: a concurrent front door for one shared
//! [`PqeEngine`](intext_engine::PqeEngine).
//!
//! The engine itself is single-writer (`&mut self` for compiles, cache
//! maintenance, and live tuple updates) while its evaluation paths are
//! pure walks over immutable `Arc`-shared artifacts. This crate turns
//! that split into a server:
//!
//! * [`SharedEngine`] — the engine behind one `RwLock`, with a
//!   read-locked probe / write-locked compile discipline
//!   (double-checked, so N racing cold probes cost one compile) and
//!   every evaluation outside any lock.
//! * [`AdmissionQueue`] — a bounded queue in front of the worker pool.
//!   Overload is a *typed* signal ([`ServeError::QueueFull`],
//!   [`ServeError::DeadlineExceeded`], [`ServeError::BudgetExceeded`]),
//!   never a wrong answer, a panic, or a hang; every admitted request
//!   leaves the queue exactly once and gets exactly one reply, on its
//!   own `std::sync::mpsc` channel.
//! * [`Server`] / [`ServeHandle`] — the worker pool and its in-process
//!   client: single queries, exact batches, lane-kernel sharded f64
//!   batches, `(ε, δ)` estimates, and cache snapshots for replica warm
//!   starts, all **bit-identical** to a sequential engine fed the same
//!   requests (the differential harness in `tests/engine_serve.rs`
//!   pins this for all 272 H-queries with `k ≤ 2`).
//! * [`net`] + [`wire`] — a length-prefixed binary protocol over
//!   TCP/Unix sockets (std only), with lossless round trips for exact
//!   rationals, and [`RemoteClient`] as the blocking client. Frames
//!   are encoded through the engine's byte codec
//!   ([`intext_engine::codec`]) and read by one frame reader for both
//!   ends.
//!
//! ```
//! use intext_serve::{Server, ServeConfig};
//! use intext_query::HQuery;
//! use intext_boolfn::phi9;
//! use intext_numeric::BigRational;
//! use intext_tid::{complete_database, uniform_tid};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! let handle = server.handle();
//! let tid = uniform_tid(complete_database(3, 1), BigRational::from_ratio(1, 2));
//! let p = handle.evaluate(&HQuery::new(phi9()), &tid).unwrap();
//! assert_eq!(p, intext_engine::PqeEngine::new().evaluate(&HQuery::new(phi9()), &tid).unwrap());
//! let snapshot = handle.snapshot().unwrap(); // warm-start bytes for a replica
//! assert!(!snapshot.is_empty());
//! server.shutdown();
//! ```

#![deny(missing_docs)]

mod error;
pub mod net;
mod queue;
mod server;
mod shared;
pub mod wire;

pub use error::ServeError;
#[cfg(unix)]
pub use net::listen_unix;
pub use net::{listen_tcp, BoundAddr, ClientError, ListenerHandle, RemoteClient, RetryPolicy};
pub use queue::{AdmissionQueue, Job, JobId, SubmitError};
pub use server::{PendingResponse, Request, Response, ServeConfig, ServeHandle, Server};
pub use shared::SharedEngine;
