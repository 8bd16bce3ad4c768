//! # sofb-core — the Streets-of-Byzantium order protocols
//!
//! Implements the paper's contribution: total-order protocols built on the
//! **signal-on-crash** process abstraction (a pair of Byzantine-prone
//! processes that mutually check each other and fail-signal on detection).
//!
//! * [`process`] — the SC protocol (normal part §4.1 + install part §4.2 +
//!   the §4.3 optimizations) and its SCR extension (§4.4);
//! * [`messages`] — the wire protocol;
//! * [`order_log`] — N1–N3 bookkeeping and commitment proofs;
//! * [`install`] — `NewBackLog` computation and verification;
//! * [`sim`] — [`sim::ScProtocol`], the SC/SCR [`Protocol`] that
//!   [`WorldBuilder`] assembles into a simulated deployment.
//!
//! The §5 measurements and safety checkers are [`sofb_harness::analysis`],
//! shared by every variant.
//!
//! [`Protocol`]: sofb_harness::Protocol
//! [`WorldBuilder`]: sofb_harness::WorldBuilder
//!
//! # Examples
//!
//! ```
//! use sofb_core::sim::ScProtocol;
//! use sofb_harness::{analysis, ClientSpec, WorldBuilder};
//! use sofb_sim::time::SimTime;
//!
//! let mut d = WorldBuilder::<ScProtocol>::new(1)
//!     .client(ClientSpec::new(50.0, 100, SimTime::from_secs(1)))
//!     .build();
//! d.start();
//! d.run_until(SimTime::from_secs(3));
//! let events = d.world.drain_events();
//! analysis::check_total_order(&events).expect("no divergent commits");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod events;
pub mod install;
pub mod messages;
pub mod order_log;
pub mod process;
pub mod sim;

pub use config::{Fault, ScConfig};
pub use events::ScEvent;
pub use messages::ScMsg;
pub use process::{PairStatus, ScProcess};
