//! # sofb-sim — deterministic discrete-event simulator
//!
//! This crate replaces the paper's 15-machine LAN testbed (see DESIGN.md's
//! substitution table). It provides:
//!
//! * [`time`] — virtual nanosecond clock ([`time::SimTime`]);
//! * [`delay`] — network delay models, including the paper's two link
//!   classes (fast intra-pair link vs. asynchronous network) and a
//!   partial-synchrony model with a Global Stabilization Time;
//! * [`cpu`] — per-node serialized CPU with service times and an overload
//!   penalty that reproduces post-saturation behaviour;
//! * [`engine`] — the event loop hosting sans-io [`engine::Actor`]s;
//! * [`metrics`] — histograms and experiment series.
//!
//! Execution is fully deterministic for a given seed, which the property
//! tests exploit to explore schedules reproducibly.
//!
//! # Examples
//!
//! ```
//! use sofb_sim::cpu::CpuModel;
//! use sofb_sim::delay::{LinkModel, NetworkModel};
//! use sofb_sim::engine::{Actor, Ctx, WireSize, World};
//!
//! #[derive(Clone, Debug)]
//! struct Hello;
//! impl WireSize for Hello {
//!     fn wire_len(&self) -> usize { 8 }
//! }
//!
//! struct Greeter { peer: usize }
//! impl Actor for Greeter {
//!     type Msg = Hello;
//!     type Event = &'static str;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Hello, &'static str>) {
//!         ctx.send(self.peer, Hello);
//!     }
//!     fn on_message(&mut self, _from: usize, _m: Hello, ctx: &mut Ctx<'_, Hello, &'static str>) {
//!         ctx.emit("got hello");
//!     }
//!     fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_, Hello, &'static str>) {}
//! }
//!
//! let mut world: World<Hello, &'static str> =
//!     World::new(NetworkModel::uniform(LinkModel::lan_100mbit()), 42);
//! world.add_node(Box::new(Greeter { peer: 1 }), CpuModel::default());
//! world.add_node(Box::new(Greeter { peer: 0 }), CpuModel::default());
//! world.start();
//! world.run_until_idle(1_000);
//! assert_eq!(world.events().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod cpu;
pub mod delay;
pub mod engine;
pub mod metrics;
pub mod sched;
pub mod time;

pub use cpu::CpuModel;
pub use delay::{DelayModel, LinkModel, NetworkModel};
pub use engine::{Actor, Ctx, NodeStats, TimedEvent, WireSize, World};
pub use metrics::{EngineCounters, Histogram, Series, SeriesPoint};
pub use time::{SimDuration, SimTime};
