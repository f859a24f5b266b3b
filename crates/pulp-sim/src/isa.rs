//! Micro-operation ISA executed by the simulated cores.
//!
//! The simulator does not interpret real RISC-V encodings; it executes a
//! small micro-op alphabet that preserves exactly the distinctions the
//! PULP energy model (Table I of the paper) and the dynamic features
//! (Table III) care about: ALU vs FP vs memory vs control, and which
//! memory level an access touches.

use serde::{Deserialize, Serialize};

/// Classes of floating-point operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FpOp {
    /// Pipelined FP add/sub/compare.
    Add,
    /// Pipelined FP multiply (and fused multiply-add).
    Mul,
    /// Non-pipelined FP divide / square root.
    Div,
}

/// Micro-operation kinds.
///
/// Memory operations carry a byte address; the memory level (TCDM vs L2) is
/// inferred from the address at execution time, mirroring how the paper's
/// trace analyser infers the access level "intercepting the address required
/// by the operation at runtime".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Single-cycle integer ALU operation (add, shift, logic, compare).
    Alu,
    /// Integer multiply.
    Mul,
    /// Multi-cycle integer divide.
    Div,
    /// Floating-point operation executed on a shared FPU.
    Fp(FpOp),
    /// Memory load; level inferred from the address.
    Load,
    /// Memory store; level inferred from the address.
    Store,
    /// Conditional branch (backward loop branches are modelled as taken).
    Branch,
    /// Unconditional jump.
    Jump,
    /// Explicit active-wait cycle.
    Nop,
}

impl OpKind {
    /// Returns `true` for operations dispatched to the shared FPUs.
    #[inline]
    pub fn is_fp(self) -> bool {
        matches!(self, OpKind::Fp(_))
    }

    /// Returns `true` for memory operations.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// Short lower-case mnemonic used in textual traces.
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::Alu => "alu",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::Fp(FpOp::Add) => "fadd",
            OpKind::Fp(FpOp::Mul) => "fmul",
            OpKind::Fp(FpOp::Div) => "fdiv",
            OpKind::Load => "lw",
            OpKind::Store => "sw",
            OpKind::Branch => "bne",
            OpKind::Jump => "j",
            OpKind::Nop => "nop",
        }
    }

    /// Parses a mnemonic produced by [`OpKind::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "alu" => OpKind::Alu,
            "mul" => OpKind::Mul,
            "div" => OpKind::Div,
            "fadd" => OpKind::Fp(FpOp::Add),
            "fmul" => OpKind::Fp(FpOp::Mul),
            "fdiv" => OpKind::Fp(FpOp::Div),
            "lw" => OpKind::Load,
            "sw" => OpKind::Store,
            "bne" => OpKind::Branch,
            "j" => OpKind::Jump,
            "nop" => OpKind::Nop,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_round_trip() {
        let all = [
            OpKind::Alu,
            OpKind::Mul,
            OpKind::Div,
            OpKind::Fp(FpOp::Add),
            OpKind::Fp(FpOp::Mul),
            OpKind::Fp(FpOp::Div),
            OpKind::Load,
            OpKind::Store,
            OpKind::Branch,
            OpKind::Jump,
            OpKind::Nop,
        ];
        for k in all {
            assert_eq!(OpKind::from_mnemonic(k.mnemonic()), Some(k));
        }
        assert_eq!(OpKind::from_mnemonic("bogus"), None);
    }

    #[test]
    fn classification_predicates() {
        assert!(OpKind::Fp(FpOp::Mul).is_fp());
        assert!(!OpKind::Mul.is_fp());
        assert!(OpKind::Load.is_mem());
    }
}
