//! The whole surface of the crates under test that the harness touches,
//! named in one place. These are the types the ROADMAP keeps; the
//! single-flow wrappers, the sharded I/O mode, the per-packet engines and
//! the legacy quantum message are deliberately absent, so deleting them
//! cannot break the yardstick. A refactor that moves one of these names
//! edits this file and nothing else.

pub use stripe_core::receiver::{Arrival, LogicalReceiver, RxBatch};
pub use stripe_core::sched::{CausalScheduler, Drr, Srr};
pub use stripe_core::sender::{MarkerConfig, StripingSender};
pub use stripe_core::types::ChannelId;
pub use stripe_core::Marker;
pub use stripe_link::{datagram_pair, DatagramLink, TestDatagramLink, TxError};
pub use stripe_net::chaos::{ChaosPlan, ChaosSnapshot, ImpairedLink};
pub use stripe_net::frame;
pub use stripe_net::sys::{self, BatchIo};
pub use stripe_net::{
    BufPool, FlowDemux, FlowHandle, PooledBuf, PumpEvent, ServerReactor, StripeServer, UdpChannel,
};
pub use stripe_netsim::{SimDuration, SimTime};
pub use stripe_transport::{FailoverConfig, FailoverDriver};
