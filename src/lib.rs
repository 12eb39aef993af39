//! # scalable-net-io
//!
//! A complete reproduction of **“Scalable Network I/O in Linux”**
//! (Niels Provos & Chuck Lever, CITI TR 00-4, USENIX 2000 FREENIX
//! track) as a deterministic discrete-event simulation in Rust.
//!
//! The paper introduced a Linux implementation of the Solaris-style
//! `/dev/poll` interface — kernel-resident interest sets, device-driver
//! hints, and a shared `mmap` result area — and compared it against
//! stock `poll()` and the POSIX RT-signal event API using `thttpd` and
//! `phhttpd` under workloads with hundreds of inactive connections.
//!
//! This crate is a facade over the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`simcore`] | simulated clock, timer queue, deterministic RNG, statistics |
//! | [`simnet`] | hosts, 100 Mbit/s links, simplified TCP, TIME_WAIT, ports |
//! | [`simkernel`] | fd tables, sockets, wait queues, signals, the calibrated K6-2 CPU |
//! | [`devpoll`] | **the paper's contribution**: stock `poll()`, `/dev/poll`, RT-signal API |
//! | [`servers`] | `thttpd` (poll / devpoll), `phhttpd` (RT signals), the hybrid |
//! | [`httperf`] | the load generator, inactive connections, testbed, run controller |
//!
//! ## Quickstart
//!
//! Run one benchmark point:
//!
//! ```
//! use scalable_net_io::httperf::{run_one, RunParams, ServerKind};
//!
//! let params = RunParams::paper(ServerKind::ThttpdDevPoll, 300.0, 50).with_conns(200);
//! let report = run_one(params);
//! assert!(report.replies > 190);
//! ```
//!
//! Regenerate the paper's figures:
//!
//! ```text
//! cargo run --release -p bench --bin figures -- all
//! ```

// `pub use bench;` would resolve to the built-in (unstable) `bench`
// test-framework name instead of the crate; the explicit extern-crate
// form is unambiguous.
pub extern crate bench;
pub use devpoll;
pub use httperf;
pub use servers;
pub use simcore;
pub use simkernel;
pub use simnet;
