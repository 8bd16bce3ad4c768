//! # sofb-bft — the Castro–Liskov BFT baseline
//!
//! The paper's primary comparator (§5, Figure 3(b)): a coordinator-based
//! deterministic protocol with a three-phase normal case — pre-prepare
//! (1→n), prepare (n→n), commit (n→n) — authenticated with the same
//! digest/signature schemes as the SC protocol, plus the view-change /
//! new-view machinery for primary failure.
//!
//! The replica ([`process::BftProcess`]) runs on the same simulator and
//! emits the same event type as the SC protocol, so the experiment
//! harness measures both identically.
//!
//! # Examples
//!
//! ```
//! use sofb_bft::sim::BftProtocol;
//! use sofb_harness::{analysis, ClientSpec, WorldBuilder};
//! use sofb_sim::time::SimTime;
//!
//! let mut d = WorldBuilder::<BftProtocol>::new(1)
//!     .client(ClientSpec::new(50.0, 100, SimTime::from_secs(1)))
//!     .build();
//! d.start();
//! d.run_until(SimTime::from_secs(3));
//! let events = d.world.drain_events();
//! analysis::check_total_order(&events).expect("no divergent commits");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod messages;
pub mod process;
pub mod sim;

pub use messages::BftMsg;
pub use process::{BftConfig, BftProcess};
