//! The interpreter's form of a [`Program`]: every core stream decoded once
//! per run into a dense array of `Copy` ops, walked by one pc per core.
//!
//! Decoding does up front what a walk over [`SegOp`]s would redo at every
//! step: it pairs each loop's begin and end, and resolves each
//! instruction's latency class against the [`ClusterConfig`].
//! [`Decoded::advance`] folds loop markers eagerly, so a core's pc always
//! rests on an op it can issue (or on [`Op::Done`]): the current op is an
//! index, and "is this core parked on `DmaWait`" a tag compare.
//!
//! Addresses are strength-reduced. Each memory op keeps its current
//! address, `base + Σ c · iv` over the loops around it; a loop's end adds
//! each coefficient on its depth to its op's address, and the loop's exit
//! takes the loop's whole contribution back out. An access is one read.
//!
//! The periodic fast-forward (`crate::period`) reads the loop state
//! through the same structure: which cores took an innermost loop's
//! back-edge, each slot's counter and how often a loop was entered at it,
//! and it runs `n` iterations of a live loop at once through the loop's
//! address steps.

use crate::config::ClusterConfig;
use crate::isa::{FpOp, OpKind};
use crate::program::{Program, SegOp};

/// One decoded op. Every core stream ends in [`Op::Done`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// An integer-pipeline op (ALU, multiply, divide, branch, jump) that
    /// keeps its core busy for `latency` cycles.
    Int {
        kind: OpKind,
        latency: u32,
    },
    /// An explicit active-wait cycle.
    Nop,
    /// An op for the core's shared FPU.
    Fp(FpOp),
    /// A load or store at the address [`Decoded::addr`] keeps in slot
    /// `at`.
    Mem {
        store: bool,
        at: u32,
    },
    Barrier,
    Fork,
    WaitFork,
    CriticalBegin,
    CriticalEnd,
    Dma {
        words: u64,
        inbound: bool,
    },
    DmaAsync {
        words: u64,
        inbound: bool,
    },
    DmaWait,
    /// Enters a loop of `trip` iterations counted in `slot`; a zero trip
    /// jumps past `end`, the pc of the matching [`Op::LoopEnd`].
    LoopBegin {
        trip: u64,
        end: u32,
        slot: u32,
    },
    /// Closes the loop that `begin` opened: back to the body until `slot`
    /// has counted the loop's trip, each iteration applying the address
    /// steps `steps[lo..hi]`. `innermost`: the body holds no loop.
    LoopEnd {
        begin: u32,
        slot: u32,
        lo: u32,
        hi: u32,
        innermost: bool,
    },
    /// The stream is exhausted.
    Done,
}

/// One coefficient of one address: each iteration of the loop at `begin`
/// moves the address in slot `at` by `by` bytes.
#[derive(Debug, Clone, Copy)]
struct AddrStep {
    begin: u32,
    at: u32,
    by: i64,
}

/// Every core stream of one program, decoded, with each core's position.
///
/// Kept in [`crate::SimScratch`], so a warm scratch decodes without
/// allocating.
#[derive(Debug, Default)]
pub(crate) struct Decoded {
    ops: Vec<Op>,
    /// The current address of every memory op.
    addrs: Vec<i64>,
    /// Every loop's address steps, grouped by loop.
    steps: Vec<AddrStep>,
    /// Each core's pc into `ops`.
    pcs: Vec<usize>,
    /// One iteration counter and trip count per loop depth per core: core
    /// `c`'s loops at depth `d` count in slot `first slot of c + d`.
    ivs: Vec<u64>,
    trips: Vec<u64>,
    /// Per slot, how many loops were entered at it, and the `LoopEnd` pc
    /// of the last one.
    entries: Vec<u64>,
    ends: Vec<u32>,
    /// Bit `c`: core `c` took an innermost loop's back-edge since the last
    /// [`Decoded::take_edges`] (cores from 64 on are not tracked).
    edges: u64,
    /// Decode-time stack of the open `LoopBegin` pcs.
    open: Vec<usize>,
}

impl Decoded {
    /// Decodes every stream of `program` (which must have passed
    /// [`Program::validate`]) and puts each core on its first op.
    pub(crate) fn decode(&mut self, program: &Program, config: &ClusterConfig) {
        self.ops.clear();
        self.addrs.clear();
        self.steps.clear();
        self.pcs.clear();
        self.open.clear();
        let mut slots = 0;
        // The most recent `LoopBegin`: a loop is innermost iff it is its own.
        let mut last_begin = usize::MAX;
        for core in 0..program.num_cores() {
            let first_slot = slots;
            self.pcs.push(self.ops.len());
            for seg in program.stream(core) {
                let depth = self.open.len();
                let op = match *seg {
                    SegOp::Instr { kind, ref addr } => {
                        let int = |latency| Op::Int { kind, latency };
                        match kind {
                            OpKind::Alu => int(1),
                            OpKind::Mul => int(config.mul_latency),
                            OpKind::Div => int(config.int_div_latency),
                            OpKind::Branch | OpKind::Jump => int(1 + config.taken_branch_penalty),
                            OpKind::Nop => Op::Nop,
                            OpKind::Fp(f) => Op::Fp(f),
                            OpKind::Load | OpKind::Store => {
                                let addr = addr.as_ref().expect("memory op without address");
                                let at = self.addrs.len() as u32;
                                self.addrs.push(addr.base);
                                let steps = addr.terms.iter().map(|&(d, by)| AddrStep {
                                    begin: self.open[usize::from(d)] as u32,
                                    at,
                                    by,
                                });
                                self.steps.extend(steps);
                                Op::Mem {
                                    store: kind == OpKind::Store,
                                    at,
                                }
                            }
                        }
                    }
                    SegOp::LoopBegin { trip } => {
                        last_begin = self.ops.len();
                        self.open.push(last_begin);
                        slots = slots.max(first_slot + depth + 1);
                        Op::LoopBegin {
                            trip,
                            end: 0,
                            slot: (first_slot + depth) as u32,
                        }
                    }
                    SegOp::LoopEnd => {
                        let begin = self.open.pop().expect("validated loop nest");
                        let pc = self.ops.len() as u32;
                        let Op::LoopBegin { end, slot, .. } = &mut self.ops[begin] else {
                            unreachable!("open holds LoopBegin pcs")
                        };
                        *end = pc;
                        // Its steps are filled in once every address is in.
                        Op::LoopEnd {
                            begin: begin as u32,
                            slot: *slot,
                            lo: 0,
                            hi: 0,
                            innermost: begin == last_begin,
                        }
                    }
                    SegOp::Barrier => Op::Barrier,
                    SegOp::Fork => Op::Fork,
                    SegOp::WaitFork => Op::WaitFork,
                    SegOp::CriticalBegin => Op::CriticalBegin,
                    SegOp::CriticalEnd => Op::CriticalEnd,
                    SegOp::Dma { words, inbound } => Op::Dma { words, inbound },
                    SegOp::DmaAsync { words, inbound } => Op::DmaAsync { words, inbound },
                    SegOp::DmaWait => Op::DmaWait,
                };
                self.ops.push(op);
            }
            self.ops.push(Op::Done);
        }
        // Group the steps by loop and hand each loop's end its range.
        self.steps.sort_unstable_by_key(|s| s.begin);
        let mut lo = 0;
        while lo < self.steps.len() {
            let begin = self.steps[lo].begin;
            let hi = lo + self.steps[lo..].partition_point(|s| s.begin == begin);
            let Op::LoopBegin { end, .. } = self.ops[begin as usize] else {
                unreachable!("a step's loop begins at a LoopBegin")
            };
            if let Op::LoopEnd { lo: l, hi: h, .. } = &mut self.ops[end as usize] {
                (*l, *h) = (lo as u32, hi as u32);
            }
            lo = hi;
        }
        self.ivs.clear();
        self.ivs.resize(slots, 0);
        self.trips.clear();
        self.trips.resize(slots, 0);
        self.entries.clear();
        self.entries.resize(slots, 0);
        self.ends.clear();
        self.ends.resize(slots, 0);
        for core in 0..self.pcs.len() {
            self.pcs[core] = self.fold(core, self.pcs[core]);
        }
        self.edges = 0;
    }

    /// `core`'s current op: never a loop marker.
    #[inline]
    pub(crate) fn current(&self, core: usize) -> Op {
        self.ops[self.pcs[core]]
    }

    /// Whether `core` rests on `DmaWait`, the one op a `Ready` core can
    /// wait on without pinning the event horizon.
    #[inline]
    pub(crate) fn next_is_dma_wait(&self, core: usize) -> bool {
        matches!(self.current(core), Op::DmaWait)
    }

    /// Consumes `core`'s current op and folds the loop markers after it.
    #[inline]
    pub(crate) fn advance(&mut self, core: usize) {
        self.pcs[core] = self.fold(core, self.pcs[core] + 1);
    }

    /// The current address of the memory op `Op::Mem { at, .. }`.
    #[inline]
    pub(crate) fn addr(&self, at: u32) -> u32 {
        let v = self.addrs[at as usize];
        debug_assert!(
            (0..=i64::from(u32::MAX)).contains(&v),
            "address out of range: {v}"
        );
        v as u32
    }

    /// Runs `core`'s loop bookkeeping from `pc` up to the next op that is
    /// not a loop marker, and returns its pc.
    #[inline]
    fn fold(&mut self, core: usize, mut pc: usize) -> usize {
        loop {
            match self.ops[pc] {
                Op::LoopBegin { trip: 0, end, .. } => pc = end as usize + 1,
                Op::LoopBegin { trip, end, slot } => {
                    let slot = slot as usize;
                    self.ivs[slot] = 0;
                    self.trips[slot] = trip;
                    self.entries[slot] += 1;
                    self.ends[slot] = end;
                    pc += 1;
                }
                Op::LoopEnd {
                    begin,
                    slot,
                    lo,
                    hi,
                    innermost,
                } => {
                    let iv = &mut self.ivs[slot as usize];
                    *iv += 1;
                    let steps = &self.steps[lo as usize..hi as usize];
                    if *iv == self.trips[slot as usize] {
                        // The loop is done: take its `iv = trip - 1` back out.
                        let last = (*iv - 1) as i64;
                        for s in steps {
                            self.addrs[s.at as usize] -= s.by * last;
                        }
                        pc += 1;
                    } else {
                        for s in steps {
                            self.addrs[s.at as usize] += s.by;
                        }
                        if innermost {
                            self.edges |= 1u64.checked_shl(core as u32).unwrap_or(0);
                        }
                        pc = begin as usize + 1;
                    }
                }
                _ => return pc,
            }
        }
    }

    /// The cores that took an innermost loop's back-edge since the last
    /// call, one bit each, and clears them.
    #[inline]
    pub(crate) fn take_edges(&mut self) -> u64 {
        std::mem::take(&mut self.edges)
    }

    /// Pushes what places every core in its stream: its pc, and each loop
    /// slot's trip count.
    pub(crate) fn position_key(&self, out: &mut Vec<u64>) {
        out.extend(self.pcs.iter().map(|&pc| pc as u64));
        out.extend(&self.trips);
    }

    /// Each loop slot's iteration counter and how many loops were entered
    /// at it, and every memory op's current address.
    pub(crate) fn counters(&self) -> (&[u64], &[u64], &[i64]) {
        (&self.ivs, &self.entries, &self.addrs)
    }

    /// Iterations the loop live at `slot` runs before its exit, the
    /// current one included.
    pub(crate) fn iterations_left(&self, slot: usize) -> u64 {
        self.trips[slot] - self.ivs[slot]
    }

    /// Adds to `steps`, per memory op, how far `n` more iterations of the
    /// loop live at `slot` move its address.
    pub(crate) fn address_steps(&self, slot: usize, n: i64, steps: &mut [i64]) {
        let (lo, hi) = self.live_range(slot);
        for s in &self.steps[lo..hi] {
            steps[s.at as usize] += s.by * n;
        }
    }

    /// Runs `n` more back-edges of the loop live at `slot` at once; the
    /// addresses it steps move with [`Decoded::move_addresses`]. The
    /// caller keeps the counter below the trip.
    pub(crate) fn skip_iterations(&mut self, slot: usize, n: u64) {
        self.ivs[slot] += n;
        debug_assert!(self.ivs[slot] < self.trips[slot], "skip past a loop exit");
    }

    /// Moves every memory op's address on by `times` times its entry in
    /// `steps`.
    pub(crate) fn move_addresses(&mut self, steps: &[i64], times: u64) {
        for (addr, step) in self.addrs.iter_mut().zip(steps) {
            *addr += step * times as i64;
        }
    }

    /// The address-step range of the loop last entered at `slot`.
    fn live_range(&self, slot: usize) -> (usize, usize) {
        match self.ops[self.ends[slot] as usize] {
            Op::LoopEnd { lo, hi, .. } => (lo as usize, hi as usize),
            op => unreachable!("slot {slot} ends at {op:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{AddrExpr, Cursor, Step};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The step the reference cursor would hand out at `core`'s position.
    fn step_of(code: &Decoded, core: usize) -> Step {
        let op = |kind, addr| Step::Op { kind, addr };
        match code.current(core) {
            Op::Int { kind, .. } => op(kind, None),
            Op::Nop => op(OpKind::Nop, None),
            Op::Fp(f) => op(OpKind::Fp(f), None),
            Op::Mem { store, at } => {
                let kind = if store { OpKind::Store } else { OpKind::Load };
                op(kind, Some(code.addr(at)))
            }
            Op::Barrier => Step::Barrier,
            Op::Fork => Step::Fork,
            Op::WaitFork => Step::WaitFork,
            Op::CriticalBegin => Step::CriticalBegin,
            Op::CriticalEnd => Step::CriticalEnd,
            Op::Dma { words, inbound } => Step::Dma { words, inbound },
            Op::DmaAsync { words, inbound } => Step::DmaAsync { words, inbound },
            Op::DmaWait => Step::DmaWait,
            Op::Done => Step::Done,
            marker @ (Op::LoopBegin { .. } | Op::LoopEnd { .. }) => {
                panic!("core {core} rests on {marker:?}")
            }
        }
    }

    /// Shapes a random stream must be able to take; counted over all
    /// generated programs so the test proves it drew each of them.
    #[derive(Debug, Default)]
    struct Coverage {
        zero_trip_loops: usize,
        nests_deeper_than_4: usize,
        addrs_over_4_terms: usize,
        dma_wait_after_loop_exit: usize,
    }

    /// Appends a random block at loop depth `depth` to `out`.
    fn block(
        rng: &mut StdRng,
        depth: usize,
        budget: &mut usize,
        out: &mut Vec<SegOp>,
        seen: &mut Coverage,
    ) {
        for _ in 0..rng.gen_range(0..5) {
            if *budget == 0 {
                return;
            }
            *budget -= 1;
            match rng.gen_range(0..12) {
                0..=2 if depth < 7 => {
                    let trip = rng.gen_range(0..4u64);
                    seen.zero_trip_loops += usize::from(trip == 0);
                    seen.nests_deeper_than_4 += usize::from(depth == 4);
                    out.push(SegOp::LoopBegin { trip });
                    block(rng, depth + 1, budget, out, seen);
                    out.push(SegOp::LoopEnd);
                    if rng.gen_range(0..3) == 0 {
                        seen.dma_wait_after_loop_exit += 1;
                        out.push(SegOp::DmaWait);
                    }
                }
                3..=5 => {
                    // Terms may repeat a depth, so a shallow nest can still
                    // carry more than 4 of them.
                    let n = if depth == 0 {
                        0
                    } else {
                        rng.gen_range(0..depth + 3)
                    };
                    seen.addrs_over_4_terms += usize::from(n > 4);
                    let terms = (0..n)
                        .map(|_| (rng.gen_range(0..depth) as u8, rng.gen_range(-8..64i64)))
                        .collect();
                    let kind = if rng.gen_range(0..2) == 0 {
                        OpKind::Load
                    } else {
                        OpKind::Store
                    };
                    out.push(SegOp::Instr {
                        kind,
                        addr: Some(AddrExpr {
                            base: 0x1000_0000,
                            terms,
                        }),
                    });
                }
                6 => {
                    let words = rng.gen_range(1..64u64);
                    let inbound = rng.gen_range(0..2) == 0;
                    out.push(match rng.gen_range(0..8) {
                        0 => SegOp::Barrier,
                        1 => SegOp::Fork,
                        2 => SegOp::WaitFork,
                        3 => SegOp::CriticalBegin,
                        4 => SegOp::CriticalEnd,
                        5 => SegOp::Dma { words, inbound },
                        6 => SegOp::DmaAsync { words, inbound },
                        _ => SegOp::DmaWait,
                    });
                }
                _ => {
                    let kinds = [
                        OpKind::Alu,
                        OpKind::Mul,
                        OpKind::Div,
                        OpKind::Branch,
                        OpKind::Jump,
                        OpKind::Nop,
                        OpKind::Fp(FpOp::Add),
                        OpKind::Fp(FpOp::Div),
                    ];
                    let kind = kinds[rng.gen_range(0..kinds.len())];
                    out.push(SegOp::Instr { kind, addr: None });
                }
            }
        }
    }

    #[test]
    fn decoded_walk_matches_the_reference_cursor() {
        let config = ClusterConfig::default();
        let mut code = Decoded::default();
        let mut seen = Coverage::default();
        for seed in 0..400 {
            let mut rng = StdRng::seed_from_u64(seed);
            let streams = (0..rng.gen_range(1..4))
                .map(|_| {
                    let mut out = Vec::new();
                    block(&mut rng, 0, &mut 40, &mut out, &mut seen);
                    out
                })
                .collect();
            let program = Program::new(streams);
            // One scratch across programs, as a sweep reuses it.
            code.decode(&program, &config);
            let mut reference: Vec<_> = (0..program.num_cores())
                .map(|core| Cursor::new(&program, core))
                .collect();
            // Step the cores round-robin, so one core's loops cannot hide
            // in another's counters.
            let mut live = program.num_cores();
            let mut position = 0;
            while live > 0 {
                live = 0;
                for (core, cursor) in reference.iter_mut().enumerate() {
                    let step = cursor.current();
                    assert_eq!(
                        step_of(&code, core),
                        step,
                        "seed {seed} core {core} step {position}"
                    );
                    assert_eq!(
                        code.next_is_dma_wait(core),
                        cursor.next_is_dma_wait(),
                        "seed {seed} core {core} step {position}"
                    );
                    if step != Step::Done {
                        cursor.advance();
                        code.advance(core);
                        live += 1;
                    }
                }
                position += 1;
            }
        }
        assert!(seen.zero_trip_loops > 0, "{seen:?}");
        assert!(seen.nests_deeper_than_4 > 0, "{seen:?}");
        assert!(seen.addrs_over_4_terms > 0, "{seen:?}");
        assert!(seen.dma_wait_after_loop_exit > 0, "{seen:?}");
    }

    #[test]
    fn int_latencies_resolve_against_the_config() {
        let config = ClusterConfig {
            mul_latency: 3,
            int_div_latency: 7,
            taken_branch_penalty: 2,
            ..ClusterConfig::default()
        };
        let kinds = [
            (OpKind::Alu, 1),
            (OpKind::Mul, 3),
            (OpKind::Div, 7),
            (OpKind::Branch, 3),
            (OpKind::Jump, 3),
        ];
        let stream = kinds
            .iter()
            .map(|&(kind, _)| SegOp::Instr { kind, addr: None })
            .collect();
        let mut code = Decoded::default();
        code.decode(&Program::new(vec![stream]), &config);
        for (kind, latency) in kinds {
            assert_eq!(code.current(0), Op::Int { kind, latency });
            code.advance(0);
        }
        assert_eq!(code.current(0), Op::Done);
    }
}
