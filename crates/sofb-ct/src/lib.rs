//! # sofb-ct — the crash-tolerant baseline
//!
//! The paper's CT protocol (§5): "simply derived from SC, with no process
//! being paired and no cryptographic techniques used. ... the shadow
//! processes are excluded from the system (hence n = 2f+1), the
//! coordinator process directly sends its order message to all other
//! processes, and an order message is committed in the same way as SC."
//!
//! Two phases: coordinator order (1→n), acks (n→n), commit on `n−f`
//! distinct supporters. CT tolerates crashes only; its purpose in §5 is to
//! expose "the extent of slow-down in BFT and SC when the type of faults
//! tolerated switches from crash to Byzantine".
//!
//! # Examples
//!
//! ```
//! use sofb_ct::sim::CtProtocol;
//! use sofb_harness::{analysis, ClientSpec, WorldBuilder};
//! use sofb_sim::time::SimTime;
//!
//! let mut d = WorldBuilder::<CtProtocol>::new(2)
//!     .client(ClientSpec::new(50.0, 100, SimTime::from_secs(1)))
//!     .build();
//! d.start();
//! d.run_until(SimTime::from_secs(2));
//! let events = d.world.drain_events();
//! analysis::check_total_order(&events).expect("no divergent commits");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod messages;
pub mod process;
pub mod sim;

pub use messages::CtMsg;
pub use process::{CtConfig, CtProcess};
