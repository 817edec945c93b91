//! Multi-party messaging substrate with pluggable backends.
//!
//! The original Pivot evaluation runs one process per client on a LAN
//! cluster, wired together with `libscapi`. This crate reproduces that
//! topology behind a backend-agnostic [`Endpoint`]: all collectives
//! (send/recv/broadcast/gather/scatter/exchange), envelope framing,
//! traffic accounting ([`NetStats`]), LAN simulation ([`NetConfig`]) and
//! `[faults]` injection ([`FaultInjector`]) are implemented once over
//! byte-level [`Link`]s, with two shipped backends:
//!
//! - **in-process channels** ([`Network`], [`run_parties`]): each client
//!   is an OS thread; links are crossbeam channel pairs;
//! - **TCP** ([`tcp::connect_mesh`]): each client is a real process;
//!   links are sockets carrying length-prefixed frames, rendezvoused via
//!   a shared peer-address list and a party-id handshake.
//!
//! The [`wire`] module is a tiny self-contained binary codec (no serde):
//! every protocol message type implements [`Wire`] and is encoded into a
//! flat byte buffer — that buffer is exactly what travels over a socket
//! in TCP mode, so byte counts are faithful and identical across
//! backends.

mod config;
mod endpoint;
mod error;
pub mod fault;
mod link;
mod stats;
pub mod tcp;
pub mod wire;

pub use config::{NetConfig, DEFAULT_CONNECT_TIMEOUT, DEFAULT_RECV_TIMEOUT, MAX_RECV_TIMEOUT_SECS};
pub use endpoint::{
    run_parties, run_parties_on, run_parties_with, try_run_parties_on, try_run_parties_with,
    Endpoint, Network,
};
pub use error::{
    catch_failures, catch_transport, panic_message, Direction, ProtocolError, RunFailure,
    TransportError, TransportErrorKind,
};
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultTrigger};
pub use link::{ChannelLink, Link, LinkError};
pub use stats::NetStats;
pub use wire::{Wire, WireError};
