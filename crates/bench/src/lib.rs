//! # stripe-bench
//!
//! Experiment engines and harnesses regenerating every table and figure in
//! the paper's evaluation (§6). Each `[[bench]]` target in this crate is
//! one experiment; `cargo bench` runs them all and prints the paper-style
//! tables. See `DESIGN.md` for the experiment index and `EXPERIMENTS.md`
//! for paper-vs-measured results.
//!
//! - [`tcplab`] — the Figure 15 testbed: TCP bulk transfer over an
//!   Ethernet + ATM-PVC pair with a host CPU model, for the seven schemes
//!   (sum upper bound, {SRR, GRR, RR} × {logical reception, none}).
//! - [`udplab`] — the §6.3 transport-layer lab: striped datagrams over
//!   lossy channels with controllable marker period/position, loss
//!   stoppage, and optional FCVC credit flow control.
//! - [`links`] — a heterogeneous link wrapper so one path can mix
//!   Ethernet and ATM members.
//! - [`table`] — plain-text table rendering for bench output.
//! - [`alloc`] — a counting global allocator backing the zero-allocation
//!   tests of the batched datapath (`tests/alloc_counting*.rs`,
//!   `tests/flow_churn.rs`).

pub mod alloc;
pub mod links;
pub mod table;
pub mod tcplab;
pub mod udplab;
