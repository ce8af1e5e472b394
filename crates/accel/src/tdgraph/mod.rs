//! The TDGraph accelerator model: TDTU + VSCU (§3).

pub mod config_regs;
pub mod engine;
pub mod fetched_buffer;
pub mod isa;
pub mod stack;
pub mod vscu;

pub use config_regs::{ConfigRegisters, SavedCursor};
pub use engine::{Mode, TdGraph, TdGraphConfig};
pub use fetched_buffer::{FetchedBuffer, FetchedEdge};
pub use isa::{Instruction, InstructionTrace};
pub use stack::{HardwareStack, Level};
pub use vscu::{StateLoc, Vscu};
