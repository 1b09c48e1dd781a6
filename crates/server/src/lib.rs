//! Attack-as-a-service: a long-running daemon running many OPPSLA attack
//! sessions concurrently over one model zoo.
//!
//! * [`protocol`] — length-prefixed JSON frames; job and response types.
//! * [`zoo`] — lazily trained, concurrently shared model shards.
//! * [`scheduler`] — the cross-session batch scheduler: all tenants'
//!   candidate queries flow through one shared queue and are packed into
//!   multi-base grouped GEMM calls, bit-identical per tenant to an
//!   isolated sequential session.
//! * [`metrics`] — the live metrics plane: lock-light registry handles
//!   the hot paths bump, the slow-request log, and the snapshot the
//!   `Stats` frame answers.
//! * [`metrics_http`] — the plaintext Prometheus-style `/metrics`
//!   listener (its own thread, never on the job path).
//! * [`top`] — rendering for `server_top`, the refreshing console view
//!   over `Stats` snapshots.
//! * [`session`] — per-job validation, budget enforcement, and the
//!   query-log digest that witnesses determinism.
//! * [`server`] — the TCP daemon: accept loop, per-connection framing,
//!   bounded admission control.
//!
//! The `oppsla_serverd` binary runs the daemon; `server_loadtest` boots
//! one in-process, replays synthetic multi-tenant traffic against it,
//! and emits the `BENCH_server.json` report CI gates.

#![warn(missing_docs)]

pub mod metrics;
pub mod metrics_http;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod session;
pub mod top;
pub mod zoo;
