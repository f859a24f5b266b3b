//! Per-core programs.
//!
//! A [`Program`] holds one compact bytecode stream per core. The bytecode
//! encodes loops symbolically (trip count + body) instead of unrolling them,
//! so multi-million-instruction kernels occupy a few kilobytes. Memory
//! operations carry an [`AddrExpr`] — an affine expression over the induction
//! variables of the enclosing loops — which the simulator evaluates while
//! walking the loop nest. The simulator walks a decoded copy of each stream
//! (`crate::decode`); the reference walk over the bytecode itself, `Cursor`,
//! is kept for tests.

use crate::isa::OpKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Affine byte-address expression over enclosing loop induction variables.
///
/// The address of an access is `base + Σ coeff_d · iv_d`, where `iv_d` is
/// the induction variable of the loop at nesting depth `d` (0 = outermost
/// loop of the core program).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddrExpr {
    /// Base byte address (loop-invariant part).
    pub base: i64,
    /// `(loop depth, coefficient in bytes)` terms.
    pub terms: Vec<(u8, i64)>,
}

impl AddrExpr {
    /// A constant address with no induction-variable terms.
    pub fn constant(base: u32) -> Self {
        Self {
            base: i64::from(base),
            terms: Vec::new(),
        }
    }

    /// Evaluates the expression for the given induction-variable stack.
    ///
    /// # Panics
    ///
    /// Panics if a term references a loop depth deeper than `ivs`, or if the
    /// result does not fit an unsigned 32-bit address.
    #[inline]
    pub fn eval(&self, ivs: &[u64]) -> u32 {
        let mut v = self.base;
        for &(d, c) in &self.terms {
            v += c * ivs[d as usize] as i64;
        }
        debug_assert!(
            (0..=i64::from(u32::MAX)).contains(&v),
            "address out of range: {v}"
        );
        v as u32
    }

    /// Maximum loop depth referenced, or `None` for constant expressions.
    pub fn max_depth(&self) -> Option<u8> {
        self.terms.iter().map(|&(d, _)| d).max()
    }
}

/// One bytecode element of a core program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SegOp {
    /// An executable micro-operation template.
    Instr {
        /// Operation class.
        kind: OpKind,
        /// Address expression for memory operations.
        addr: Option<AddrExpr>,
    },
    /// Begin a counted loop running `trip` iterations of the body.
    LoopBegin {
        /// Number of iterations (zero-trip loops are skipped entirely).
        trip: u64,
    },
    /// End of the innermost open loop body.
    LoopEnd,
    /// Cluster-wide barrier (all cores participate).
    Barrier,
    /// Master-side fork: wake the worker cores for a parallel region.
    Fork,
    /// Worker-side fork wait: sleep (clock-gated) until the master forks.
    WaitFork,
    /// Acquire the cluster critical-section lock (spin if held).
    CriticalBegin,
    /// Release the cluster critical-section lock.
    CriticalEnd,
    /// Program a blocking DMA transfer (master only).
    Dma {
        /// 32-bit words to move.
        words: u64,
        /// `true` for L2 → TCDM.
        inbound: bool,
    },
    /// Program an asynchronous DMA transfer and continue (master only).
    DmaAsync {
        /// 32-bit words to move.
        words: u64,
        /// `true` for L2 → TCDM.
        inbound: bool,
    },
    /// Wait for all outstanding asynchronous DMA transfers.
    DmaWait,
}

/// What the reference cursor hands out for the current step.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Execute a micro-op.
    Op {
        /// Operation class.
        kind: OpKind,
        /// Byte address for memory operations, `None` otherwise.
        addr: Option<u32>,
    },
    /// Arrive at the cluster barrier.
    Barrier,
    /// Master fork point.
    Fork,
    /// Worker fork wait.
    WaitFork,
    /// Try to take the critical lock.
    CriticalBegin,
    /// Release the critical lock.
    CriticalEnd,
    /// Program a blocking DMA transfer.
    Dma {
        /// 32-bit words to move.
        words: u64,
        /// `true` for L2 → TCDM.
        inbound: bool,
    },
    /// Program an asynchronous DMA transfer and continue.
    DmaAsync {
        /// 32-bit words to move.
        words: u64,
        /// `true` for L2 → TCDM.
        inbound: bool,
    },
    /// Wait for outstanding asynchronous DMA transfers.
    DmaWait,
    /// Program finished.
    Done,
}

/// Errors produced by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateProgramError {
    /// A `LoopEnd` without a matching `LoopBegin` on core `core` at `pc`.
    UnmatchedLoopEnd {
        /// Core whose program is malformed.
        core: usize,
        /// Bytecode index of the offending element.
        pc: usize,
    },
    /// A `LoopBegin` without a matching `LoopEnd`.
    UnclosedLoop {
        /// Core whose program is malformed.
        core: usize,
        /// Bytecode index of the unclosed `LoopBegin`.
        pc: usize,
    },
    /// An address expression references a loop depth not enclosing it.
    BadAddrDepth {
        /// Core whose program is malformed.
        core: usize,
        /// Bytecode index of the offending instruction.
        pc: usize,
        /// Depth referenced by the expression.
        depth: u8,
        /// Actual nesting depth at that point.
        nesting: usize,
    },
    /// Cores disagree on the sequence of barriers/forks, which would
    /// deadlock the cluster.
    SyncMismatch {
        /// First core whose synchronisation skeleton diverges from core 0's.
        core: usize,
    },
}

impl fmt::Display for ValidateProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnmatchedLoopEnd { core, pc } => {
                write!(f, "core {core}: unmatched LoopEnd at pc {pc}")
            }
            Self::UnclosedLoop { core, pc } => {
                write!(f, "core {core}: LoopBegin at pc {pc} never closed")
            }
            Self::BadAddrDepth {
                core,
                pc,
                depth,
                nesting,
            } => write!(
                f,
                "core {core}: address at pc {pc} references loop depth {depth} \
                 but nesting is only {nesting}"
            ),
            Self::SyncMismatch { core } => {
                write!(f, "core {core}: barrier/fork sequence differs from core 0")
            }
        }
    }
}

impl std::error::Error for ValidateProgramError {}

/// A complete multi-core program: one bytecode stream per core.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    streams: Vec<Vec<SegOp>>,
}

impl Program {
    /// Wraps per-core bytecode streams into a program.
    pub fn new(streams: Vec<Vec<SegOp>>) -> Self {
        Self { streams }
    }

    /// Number of core streams.
    pub fn num_cores(&self) -> usize {
        self.streams.len()
    }

    /// The bytecode stream of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn stream(&self, core: usize) -> &[SegOp] {
        &self.streams[core]
    }

    /// Checks structural well-formedness of every core stream.
    ///
    /// # Errors
    ///
    /// Returns the first structural defect found: unmatched loops, address
    /// expressions referencing non-enclosing loops, or synchronisation
    /// skeletons that differ across cores (which would deadlock).
    pub fn validate(&self) -> Result<(), ValidateProgramError> {
        let mut skeleton0: Vec<u8> = Vec::new();
        for (core, stream) in self.streams.iter().enumerate() {
            let mut depth = 0usize;
            // The pc of the outermost open `LoopBegin`.
            let mut outermost = 0;
            // Sized up front, so the simulator, which validates every
            // program it runs, allocates once per core whatever the shape.
            let mut skeleton: Vec<u8> = Vec::with_capacity(stream.len());
            for (pc, op) in stream.iter().enumerate() {
                match op {
                    SegOp::LoopBegin { .. } => {
                        if depth == 0 {
                            outermost = pc;
                        }
                        depth += 1;
                    }
                    SegOp::LoopEnd => {
                        if depth == 0 {
                            return Err(ValidateProgramError::UnmatchedLoopEnd { core, pc });
                        }
                        depth -= 1;
                    }
                    SegOp::Instr { addr: Some(a), .. } => {
                        if let Some(d) = a.max_depth() {
                            if usize::from(d) >= depth {
                                return Err(ValidateProgramError::BadAddrDepth {
                                    core,
                                    pc,
                                    depth: d,
                                    nesting: depth,
                                });
                            }
                        }
                    }
                    SegOp::Barrier => skeleton.push(b'B'),
                    SegOp::Fork | SegOp::WaitFork => skeleton.push(b'F'),
                    _ => {}
                }
            }
            if depth > 0 {
                return Err(ValidateProgramError::UnclosedLoop {
                    core,
                    pc: outermost,
                });
            }
            if core == 0 {
                skeleton0 = skeleton;
            } else if skeleton != skeleton0 {
                return Err(ValidateProgramError::SyncMismatch { core });
            }
        }
        Ok(())
    }

    /// Total number of dynamic micro-ops the program will execute,
    /// accounting for loop trip counts (synchronisation steps excluded).
    pub fn dynamic_op_count(&self) -> u64 {
        self.streams.iter().map(|s| Self::count_stream(s)).sum()
    }

    /// Renders the program as a human-readable per-core listing.
    ///
    /// Loops are shown symbolically with their trip counts; address
    /// expressions keep their affine form (`base + c*iv<d>`).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (core, stream) in self.streams.iter().enumerate() {
            let _ = writeln!(out, "core {core}: ({} static ops)", stream.len());
            let mut depth = 1usize;
            for (pc, op) in stream.iter().enumerate() {
                if matches!(op, SegOp::LoopEnd) {
                    depth = depth.saturating_sub(1);
                }
                let pad = "  ".repeat(depth);
                let _ = write!(out, "{pc:>5}{pad}");
                match op {
                    SegOp::Instr { kind, addr } => {
                        let _ = write!(out, "{}", kind.mnemonic());
                        if let Some(a) = addr {
                            let _ = write!(out, " [{:#x}", a.base);
                            for (d, c) in &a.terms {
                                let _ = write!(out, " + {c}*iv{d}");
                            }
                            let _ = write!(out, "]");
                        }
                    }
                    SegOp::LoopBegin { trip } => {
                        let _ = write!(out, "loop x{trip} {{");
                        depth += 1;
                    }
                    SegOp::LoopEnd => {
                        let _ = write!(out, "}}");
                    }
                    SegOp::Barrier => {
                        let _ = write!(out, "barrier");
                    }
                    SegOp::Fork => {
                        let _ = write!(out, "fork");
                    }
                    SegOp::WaitFork => {
                        let _ = write!(out, "wait_fork");
                    }
                    SegOp::CriticalBegin => {
                        let _ = write!(out, "critical_begin");
                    }
                    SegOp::CriticalEnd => {
                        let _ = write!(out, "critical_end");
                    }
                    SegOp::Dma { words, inbound } => {
                        let dir = if *inbound { "in" } else { "out" };
                        let _ = write!(out, "dma.{dir} {words} words");
                    }
                    SegOp::DmaAsync { words, inbound } => {
                        let dir = if *inbound { "in" } else { "out" };
                        let _ = write!(out, "dma.{dir}.async {words} words");
                    }
                    SegOp::DmaWait => {
                        let _ = write!(out, "dma.wait");
                    }
                }
                out.push('\n');
            }
        }
        out
    }

    fn count_stream(stream: &[SegOp]) -> u64 {
        // Multiplier stack: product of enclosing trip counts.
        let mut mult: Vec<u64> = vec![1];
        let mut total = 0u64;
        for op in stream {
            match op {
                SegOp::LoopBegin { trip } => {
                    let m = mult.last().copied().unwrap_or(1);
                    mult.push(m.saturating_mul(*trip));
                }
                SegOp::LoopEnd => {
                    mult.pop();
                }
                SegOp::Instr { .. } => {
                    total += mult.last().copied().unwrap_or(1);
                }
                _ => {}
            }
        }
        total
    }
}

/// The reference walk over one core's bytecode, which the decoded walk
/// (`crate::decode`) must reproduce step for step.
///
/// The cursor yields [`Step`]s one at a time. `advance` must be called
/// exactly once after each yielded step that completed (memory grants, lock
/// acquisition etc. may retry the same step across cycles by simply not
/// advancing).
#[cfg(test)]
#[derive(Debug, Clone)]
pub struct Cursor<'p> {
    stream: &'p [SegOp],
    /// Matching LoopEnd index for each LoopBegin (and vice versa).
    matches: Vec<usize>,
    pc: usize,
    /// `(loop begin pc, remaining iterations, iv value)` frames.
    frames: Vec<Frame>,
    ivs: Vec<u64>,
}

#[cfg(test)]
#[derive(Debug, Clone, Copy)]
struct Frame {
    begin_pc: usize,
    remaining: u64,
}

#[cfg(test)]
impl<'p> Cursor<'p> {
    /// Creates a cursor over `core`'s stream of `program`.
    ///
    /// # Panics
    ///
    /// Panics if the stream has unmatched loop delimiters (call
    /// [`Program::validate`] first to get a proper error).
    pub fn new(program: &'p Program, core: usize) -> Self {
        let stream = program.stream(core);
        let mut matches = vec![usize::MAX; stream.len()];
        let mut stack = Vec::new();
        for (pc, op) in stream.iter().enumerate() {
            match op {
                SegOp::LoopBegin { .. } => stack.push(pc),
                SegOp::LoopEnd => {
                    let b = stack.pop().expect("unmatched LoopEnd");
                    matches[b] = pc;
                    matches[pc] = b;
                }
                _ => {}
            }
        }
        assert!(stack.is_empty(), "unclosed LoopBegin");
        Self {
            stream,
            matches,
            pc: 0,
            frames: Vec::new(),
            ivs: Vec::new(),
        }
    }

    /// Folds loop bookkeeping (entering loops, iterating, popping finished
    /// frames) until the cursor rests on a yieldable op, and returns it
    /// (`None` once the stream is exhausted). Frame mutations only happen
    /// while the pc sits on a `LoopBegin`/`LoopEnd` marker, so once resolved
    /// the call is idempotent until the next [`Cursor::advance`].
    #[inline]
    fn resolve(&mut self) -> Option<&'p SegOp> {
        let stream = self.stream;
        loop {
            let op = stream.get(self.pc)?;
            match op {
                SegOp::LoopBegin { trip } => {
                    if *trip == 0 {
                        // Skip the whole body.
                        self.pc = self.matches[self.pc] + 1;
                    } else {
                        self.frames.push(Frame {
                            begin_pc: self.pc,
                            remaining: *trip,
                        });
                        self.ivs.push(0);
                        self.pc += 1;
                    }
                }
                SegOp::LoopEnd => {
                    let f = self.frames.last_mut().expect("cursor: dangling LoopEnd");
                    f.remaining -= 1;
                    if f.remaining == 0 {
                        self.frames.pop();
                        self.ivs.pop();
                        self.pc += 1;
                    } else {
                        *self.ivs.last_mut().expect("iv stack") += 1;
                        self.pc = f.begin_pc + 1;
                    }
                }
                _ => return Some(op),
            }
        }
    }

    /// Returns the step at the current position without consuming it.
    pub fn current(&mut self) -> Step {
        let Some(op) = self.resolve() else {
            return Step::Done;
        };
        match op {
            SegOp::Instr { kind, addr } => {
                let a = addr.as_ref().map(|e| e.eval(&self.ivs));
                Step::Op {
                    kind: *kind,
                    addr: a,
                }
            }
            SegOp::Barrier => Step::Barrier,
            SegOp::Fork => Step::Fork,
            SegOp::WaitFork => Step::WaitFork,
            SegOp::CriticalBegin => Step::CriticalBegin,
            SegOp::CriticalEnd => Step::CriticalEnd,
            SegOp::Dma { words, inbound } => Step::Dma {
                words: *words,
                inbound: *inbound,
            },
            SegOp::DmaAsync { words, inbound } => Step::DmaAsync {
                words: *words,
                inbound: *inbound,
            },
            SegOp::DmaWait => Step::DmaWait,
            SegOp::LoopBegin { .. } | SegOp::LoopEnd => unreachable!("resolve() folds loops"),
        }
    }

    /// Whether the next yieldable step is [`Step::DmaWait`], without
    /// evaluating address expressions.
    pub fn next_is_dma_wait(&mut self) -> bool {
        matches!(self.resolve(), Some(SegOp::DmaWait))
    }

    /// Consumes the current step, moving to the next one.
    pub fn advance(&mut self) {
        if self.pc < self.stream.len() {
            self.pc += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::OpKind;

    fn instr(kind: OpKind) -> SegOp {
        SegOp::Instr { kind, addr: None }
    }

    fn drain(program: &Program, core: usize) -> Vec<Step> {
        let mut c = Cursor::new(program, core);
        let mut out = Vec::new();
        loop {
            let s = c.current();
            if s == Step::Done {
                break;
            }
            out.push(s);
            c.advance();
        }
        out
    }

    #[test]
    fn straight_line_stream() {
        let p = Program::new(vec![vec![instr(OpKind::Alu), instr(OpKind::Nop)]]);
        let steps = drain(&p, 0);
        assert_eq!(steps.len(), 2);
        assert_eq!(
            steps[0],
            Step::Op {
                kind: OpKind::Alu,
                addr: None
            }
        );
    }

    #[test]
    fn loop_repeats_body() {
        let p = Program::new(vec![vec![
            SegOp::LoopBegin { trip: 3 },
            instr(OpKind::Alu),
            SegOp::LoopEnd,
        ]]);
        assert_eq!(drain(&p, 0).len(), 3);
        assert_eq!(p.dynamic_op_count(), 3);
    }

    #[test]
    fn zero_trip_loop_is_skipped() {
        let p = Program::new(vec![vec![
            SegOp::LoopBegin { trip: 0 },
            instr(OpKind::Alu),
            SegOp::LoopEnd,
            instr(OpKind::Nop),
        ]]);
        let steps = drain(&p, 0);
        assert_eq!(
            steps,
            vec![Step::Op {
                kind: OpKind::Nop,
                addr: None
            }]
        );
    }

    #[test]
    fn nested_loops_multiply() {
        let p = Program::new(vec![vec![
            SegOp::LoopBegin { trip: 4 },
            SegOp::LoopBegin { trip: 5 },
            instr(OpKind::Alu),
            SegOp::LoopEnd,
            SegOp::LoopEnd,
        ]]);
        assert_eq!(drain(&p, 0).len(), 20);
        assert_eq!(p.dynamic_op_count(), 20);
    }

    #[test]
    fn addr_expr_tracks_ivs() {
        // for i in 0..2 { for j in 0..3 { load base + 12*i + 4*j } }
        let p = Program::new(vec![vec![
            SegOp::LoopBegin { trip: 2 },
            SegOp::LoopBegin { trip: 3 },
            SegOp::Instr {
                kind: OpKind::Load,
                addr: Some(AddrExpr {
                    base: 100,
                    terms: vec![(0, 12), (1, 4)],
                }),
            },
            SegOp::LoopEnd,
            SegOp::LoopEnd,
        ]]);
        let addrs: Vec<u32> = drain(&p, 0)
            .into_iter()
            .map(|s| match s {
                Step::Op { addr: Some(a), .. } => a,
                other => panic!("unexpected step {other:?}"),
            })
            .collect();
        assert_eq!(addrs, vec![100, 104, 108, 112, 116, 120]);
    }

    #[test]
    fn validate_catches_unmatched_end() {
        let p = Program::new(vec![vec![SegOp::LoopEnd]]);
        assert!(matches!(
            p.validate(),
            Err(ValidateProgramError::UnmatchedLoopEnd { core: 0, pc: 0 })
        ));
    }

    #[test]
    fn validate_catches_unclosed_loop() {
        let p = Program::new(vec![vec![SegOp::LoopBegin { trip: 1 }]]);
        assert!(matches!(
            p.validate(),
            Err(ValidateProgramError::UnclosedLoop { .. })
        ));
    }

    #[test]
    fn validate_catches_bad_addr_depth() {
        let p = Program::new(vec![vec![SegOp::Instr {
            kind: OpKind::Load,
            addr: Some(AddrExpr {
                base: 0,
                terms: vec![(0, 4)],
            }),
        }]]);
        assert!(matches!(
            p.validate(),
            Err(ValidateProgramError::BadAddrDepth { .. })
        ));
    }

    #[test]
    fn validate_catches_sync_mismatch() {
        let p = Program::new(vec![vec![SegOp::Barrier], vec![]]);
        assert!(matches!(
            p.validate(),
            Err(ValidateProgramError::SyncMismatch { core: 1 })
        ));
    }

    #[test]
    fn disassembly_lists_all_ops() {
        let p = Program::new(vec![vec![
            SegOp::Fork,
            SegOp::LoopBegin { trip: 4 },
            SegOp::Instr {
                kind: OpKind::Load,
                addr: Some(AddrExpr {
                    base: 0x1000_0000,
                    terms: vec![(0, 4)],
                }),
            },
            SegOp::LoopEnd,
            SegOp::Barrier,
        ]]);
        let text = p.disassemble();
        assert!(text.contains("core 0"));
        assert!(text.contains("loop x4 {"));
        assert!(text.contains("lw [0x10000000 + 4*iv0]"));
        assert!(text.contains("barrier"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }

    #[test]
    fn next_is_dma_wait_resolves_loops_without_consuming() {
        // A zero-trip loop immediately followed by DmaWait: the probe must
        // fold the loop bookkeeping exactly like `current()` would.
        let p = Program::new(vec![vec![
            SegOp::LoopBegin { trip: 0 },
            instr(OpKind::Alu),
            SegOp::LoopEnd,
            SegOp::DmaWait,
            instr(OpKind::Nop),
        ]]);
        let mut c = Cursor::new(&p, 0);
        assert!(c.next_is_dma_wait());
        // Idempotent, and agrees with `current()`.
        assert!(c.next_is_dma_wait());
        assert_eq!(c.current(), Step::DmaWait);
        c.advance();
        assert!(!c.next_is_dma_wait());
        assert!(matches!(c.current(), Step::Op { .. }));
        c.advance();
        assert!(!c.next_is_dma_wait());
        assert_eq!(c.current(), Step::Done);
    }

    #[test]
    fn validate_accepts_matching_sync() {
        let p = Program::new(vec![
            vec![SegOp::Fork, instr(OpKind::Alu), SegOp::Barrier],
            vec![SegOp::WaitFork, SegOp::Barrier],
        ]);
        assert!(p.validate().is_ok());
    }
}
