//! # psi-serve — a batched, pipelined network front-end for the query
//! engine
//!
//! The ROADMAP's north star is an index that "serves millions of users"
//! — which means a wire protocol, backpressure, and open-loop tail
//! latency, none of which the in-process benchmarks can measure. This
//! crate is that front-end:
//!
//! * [`wire`] — a length-prefixed binary protocol over TCP or
//!   unix-domain sockets, encoded with the store's bounds-checked
//!   `MetaBuf`/`MetaCursor` primitives. Malformed frames get typed
//!   protocol errors, never panics.
//! * [`Server`] — per-connection reader threads feed an admission
//!   queue; one batcher thread drains it per tick (round-robin across
//!   connections for fairness) into
//!   `IndexedTable::execute_batch_settled`, so concurrent requests
//!   share buffer-pool locality and a failing request settles into its
//!   own response slot.
//! * **Admission control** — a global and a per-connection in-flight
//!   cap; over-budget requests are shed *at the door* with a typed
//!   [`wire::ErrorCode::Overloaded`] response, bounding queue length
//!   (and therefore tail latency) by construction. Pool-budget
//!   exhaustion inside execution (`PoolError::Exhausted`) surfaces the
//!   same way: a typed retryable error for that request alone.
//! * [`Client`] — a pipelined client: `send` and `recv` are
//!   independent, responses correlate by id, and [`Client::split`]
//!   gives separately owned halves for open-loop load generation.
//! * **Live stats** — a `STATS` wire op ([`Client::stats`]) answered
//!   inline by the connection's reader thread (it bypasses admission
//!   control and batching, so a saturated server still answers its
//!   operator) with a [`psi_obs::Snapshot`]: the global registry
//!   (pool, planner, WAL, scrubber) plus this server's `serve/*`
//!   counters, latency/occupancy histograms, the totals of its open
//!   connections, and the served table's `quarantine/*` extent lists.
//!   [`Server::stats`] reads the same counters. Requests
//!   slower than [`ServeConfig::slow_query_ns`] land in a bounded
//!   [`SlowQuery`] ring log with their full plan trace.
//!
//! The contract the soak suite pins: **every request frame the server
//! reads gets exactly one response** — rows, a typed error, or
//! `Overloaded` — and non-shed responses are bit-identical to a direct
//! `IndexedTable::execute` of the same query.

#![warn(missing_docs)]

mod client;
mod server;
pub mod wire;

pub use client::{Client, Receiver, Sender};
pub use server::{ConnStats, ServeConfig, ServeStats, Server, SlowQuery};
