//! # dtn-routing
//!
//! DTN routing protocols over the [`dtn_sim`] kernel:
//!
//! * [`chitchat`] — the ChitChat algorithm (McGeehan, Lin, Madria — ICDCS
//!   2016): Real-time Transient Social Relationship modeling (decay/growth
//!   weight exchange) plus the `S_v > S_u` data-centric forwarding rule.
//!   This is the routing substrate *and* the evaluation baseline of the
//!   reproduced incentive paper.
//! * [`backend`] — the [`backend::RouterBackend`] seam: ChitChat plus the
//!   classic baselines (Epidemic, Direct Delivery, binary Spray-and-Wait,
//!   Two-Hop Relay, PRoPHET) as pluggable substrates the incentive overlay
//!   in `dtn-core` composes with. Each classic router exists only here;
//!   with the overlay off it is the plain baseline.
//! * [`prophet`] — PRoPHET's parameters and delivery-predictability table
//!   (RFC 6693), used by the PRoPHET backend.
//! * [`cedo`] — CEDO, the request-driven content-centric dissemination
//!   scheme the thesis contrasts ChitChat with (§1.2); the one standalone
//!   router without a backend.
//! * [`interests`] — the RTSR interest-table model shared with `dtn-core`.
//! * [`directory`] — static interest registry used by the classic
//!   backends' delivery criterion.
//!
//! ## Example
//!
//! ```
//! use dtn_routing::prelude::*;
//! use dtn_sim::prelude::*;
//!
//! let mut router = ChitChatRouter::new(10, ChitChatParams::paper_default());
//! router.subscribe(NodeId(3), [Keyword(42)]);
//! assert!(router.is_destination(NodeId(3), &[Keyword(42)]));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod cedo;
pub mod chitchat;
pub mod directory;
pub mod exchange;
pub mod interests;
pub mod prophet;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::backend::{
        BackendKind, ChitChatBackend, DirectBackend, EpidemicBackend, Overlay, ProphetBackend,
        RouterBackend, SprayBackend, TwoHopBackend,
    };
    pub use crate::cedo::CedoRouter;
    pub use crate::chitchat::ChitChatRouter;
    pub use crate::directory::InterestDirectory;
    pub use crate::exchange::{due_pairs, rtsr_exchange, shared_keywords, KeywordSet};
    pub use crate::interests::{ChitChatParams, InterestEntry, InterestKind, InterestTable};
    pub use crate::prophet::ProphetParams;
}
