//! The TDGraph accelerator model: TDTU + VSCU (§3).

pub mod engine;
pub mod stack;
pub mod vscu;

pub use engine::{Mode, TdGraph, TdGraphConfig};
pub use stack::{HardwareStack, Level};
pub use vscu::{StateLoc, Vscu};
