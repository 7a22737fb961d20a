//! # flexnet-types
//!
//! Common vocabulary types shared by every FlexNet crate: simulated time,
//! identifiers, packets and header stacks, resource vectors, and the error
//! type.
//!
//! FlexNet (from *"A Vision for Runtime Programmable Networks"*, HotNets '21)
//! is a framework for networks whose devices are reprogrammed **at runtime**,
//! while serving live traffic. This crate deliberately contains no behaviour
//! beyond the data model, so that the language, data-plane, compiler,
//! simulator, and controller crates can all agree on the same nouns without
//! depending on each other.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod id;
pub mod name;
pub mod packet;
pub mod resources;
pub mod time;

pub use error::{FlexError, Result, StorageError, Trap};
pub use id::{AppId, AppUri, LinkId, NodeId, ProgramVersion, TenantId, VlanId};
pub use name::{names, Fields, Name, NameKey};
pub use packet::{FlowKey, Header, Packet, Verdict};
pub use resources::{ResourceKind, ResourceVec};
pub use time::{SimDuration, SimTime};
