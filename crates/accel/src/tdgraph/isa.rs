//! The ISA extension and low-level API surface of TDGraph (§3.2.2).
//!
//! TDGraph is a *programmable* accelerator: the software streaming-graph
//! system drives it through three primitives, each backed by an ISA
//! instruction —
//!
//! | API | instruction | effect |
//! |---|---|---|
//! | `TD_configure()` | `TD_CONFIGURE` | program the engine's register file ([`super::config_regs::ConfigRegisters`]) |
//! | `TD_fetch_edge()` | `TD_FETCH_EDGE` | dequeue one prefetched edge from the `Fetched Buffer` |
//! | `TD_update_state()` | `TD_UPDATE_STATE` | write a vertex state through the VSCU's addressing |
//!
//! This module defines the instruction encoding and a typed builder for
//! instruction sequences. It is a standalone, unit-tested model of the
//! §3.2.2 interface: the engine charges its per-step costs as `Op`s
//! through `Machine::compute` directly, and no simulated count depends on
//! anything here.

use tdgraph_graph::types::VertexId;

/// One TDGraph ISA instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instruction {
    /// `TD_CONFIGURE rbase`: program the memory-mapped register file from a
    /// configuration block at the given virtual address.
    Configure {
        /// Address of the configuration block (Fig 7 layout).
        block_addr: u64,
    },
    /// `TD_FETCH_EDGE rd`: pop the next prefetched edge; sets the zero flag
    /// when the buffer is empty and the traversal has finished.
    FetchEdge,
    /// `TD_UPDATE_STATE rv, rs`: write state `value` to vertex `vertex`
    /// through the VSCU (redirected to `Coalesced_States` when hot).
    UpdateState {
        /// Destination vertex.
        vertex: VertexId,
        /// New state value.
        value: f32,
    },
}

impl Instruction {
    /// Issue latency on the core in cycles: all three are single-issue
    /// register/queue operations; the memory work happens in the engine.
    #[must_use]
    pub fn core_cycles(&self) -> u64 {
        match self {
            // Writing the register file is a handful of stores.
            Instruction::Configure { .. } => 8,
            Instruction::FetchEdge | Instruction::UpdateState { .. } => 1,
        }
    }

    /// Mnemonic, as it would appear in a disassembly.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instruction::Configure { .. } => "TD_CONFIGURE",
            Instruction::FetchEdge => "TD_FETCH_EDGE",
            Instruction::UpdateState { .. } => "TD_UPDATE_STATE",
        }
    }
}

/// A recorded sequence of engine instructions (core↔engine interface
/// trace).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstructionTrace {
    ops: Vec<Instruction>,
}

impl InstructionTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an instruction.
    pub fn record(&mut self, op: Instruction) {
        self.ops.push(op);
    }

    /// The recorded instructions.
    #[must_use]
    pub fn ops(&self) -> &[Instruction] {
        &self.ops
    }

    /// Total core cycles the recorded sequence issues for.
    #[must_use]
    pub fn total_core_cycles(&self) -> u64 {
        self.ops.iter().map(Instruction::core_cycles).sum()
    }

    /// Count of instructions with the given mnemonic.
    #[must_use]
    pub fn count(&self, mnemonic: &str) -> usize {
        self.ops.iter().filter(|op| op.mnemonic() == mnemonic).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_match_the_paper() {
        assert_eq!(Instruction::Configure { block_addr: 0 }.mnemonic(), "TD_CONFIGURE");
        assert_eq!(Instruction::FetchEdge.mnemonic(), "TD_FETCH_EDGE");
        assert_eq!(
            Instruction::UpdateState { vertex: 1, value: 0.5 }.mnemonic(),
            "TD_UPDATE_STATE"
        );
    }

    #[test]
    fn fetch_and_update_are_single_cycle() {
        assert_eq!(Instruction::FetchEdge.core_cycles(), 1);
        assert_eq!(Instruction::UpdateState { vertex: 0, value: 0.0 }.core_cycles(), 1);
        assert!(Instruction::Configure { block_addr: 4096 }.core_cycles() > 1);
    }

    #[test]
    fn trace_counts_and_sums() {
        let mut t = InstructionTrace::new();
        t.record(Instruction::Configure { block_addr: 4096 });
        for v in 0..4 {
            t.record(Instruction::FetchEdge);
            t.record(Instruction::UpdateState { vertex: v, value: 1.0 });
        }
        assert_eq!(t.count("TD_FETCH_EDGE"), 4);
        assert_eq!(t.count("TD_UPDATE_STATE"), 4);
        assert_eq!(t.count("TD_CONFIGURE"), 1);
        assert_eq!(t.total_core_cycles(), 8 + 8);
        assert_eq!(t.ops().len(), 9);
    }
}
