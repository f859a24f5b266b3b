//! Ergonomic kernel construction.
//!
//! [`KernelBuilder`] offers closure-scoped loops so that kernel sources in
//! the dataset crate read like the C they were ported from:
//!
//! ```
//! use kernel_ir::{DType, KernelBuilder, Suite};
//!
//! # fn main() -> Result<(), kernel_ir::ValidateKernelError> {
//! let n = 16;
//! let mut b = KernelBuilder::new("vec_scale", Suite::Custom, DType::F32, n * 4);
//! let a = b.array("a", n);
//! b.par_for(n as u64, |b, i| {
//!     b.load(a, i);
//!     b.compute(1);
//!     b.store(a, i);
//! });
//! let kernel = b.build()?;
//! assert_eq!(kernel.arrays.len(), 1);
//! # Ok(())
//! # }
//! ```

use crate::ast::{ArrayDecl, ArrayId, Kernel, Stmt};
use crate::expr::{Idx, LoopVar};
use crate::types::{DType, MemLevel, Schedule, Suite};
use crate::validate::{validate, ValidateKernelError};

/// Incremental builder for [`Kernel`]s.
///
/// Statements are appended to the innermost open scope; loops open a scope
/// for the duration of their closure.
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    suite: Suite,
    dtype: DType,
    payload_bytes: usize,
    arrays: Vec<ArrayDecl>,
    scopes: Vec<Vec<Stmt>>,
    next_var: u32,
}

impl KernelBuilder {
    /// Starts a kernel named `name` from `suite`, instantiated for `dtype`
    /// and a payload of `payload_bytes`.
    pub fn new(name: impl Into<String>, suite: Suite, dtype: DType, payload_bytes: usize) -> Self {
        Self {
            name: name.into(),
            suite,
            dtype,
            payload_bytes,
            arrays: Vec::new(),
            scopes: vec![Vec::new()],
            next_var: 0,
        }
    }

    /// The data type this kernel instance manipulates.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Declares a TCDM-resident array of `len` elements.
    pub fn array(&mut self, name: impl Into<String>, len: usize) -> ArrayId {
        self.declare(name, len, MemLevel::Tcdm)
    }

    /// Declares an L2-resident array of `len` elements (off-cluster data).
    pub fn array_l2(&mut self, name: impl Into<String>, len: usize) -> ArrayId {
        self.declare(name, len, MemLevel::L2)
    }

    fn declare(&mut self, name: impl Into<String>, len: usize, level: MemLevel) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(ArrayDecl {
            name: name.into(),
            len,
            level,
        });
        id
    }

    fn push(&mut self, s: Stmt) {
        self.scopes.last_mut().expect("builder scope stack").push(s);
    }

    fn fresh_var(&mut self) -> LoopVar {
        let v = LoopVar(self.next_var);
        self.next_var += 1;
        v
    }

    /// Opens a sequential loop of `trip` iterations.
    pub fn for_(&mut self, trip: u64, f: impl FnOnce(&mut Self, LoopVar)) {
        let var = self.fresh_var();
        self.scopes.push(Vec::new());
        f(self, var);
        let body = self.scopes.pop().expect("loop scope");
        self.push(Stmt::For { var, trip, body });
    }

    /// Opens an OpenMP `parallel for` with static scheduling.
    pub fn par_for(&mut self, trip: u64, f: impl FnOnce(&mut Self, LoopVar)) {
        self.par_for_sched(trip, Schedule::Static, f);
    }

    /// Opens an OpenMP `parallel for` with an explicit schedule.
    pub fn par_for_sched(
        &mut self,
        trip: u64,
        sched: Schedule,
        f: impl FnOnce(&mut Self, LoopVar),
    ) {
        let var = self.fresh_var();
        self.scopes.push(Vec::new());
        f(self, var);
        let body = self.scopes.pop().expect("loop scope");
        self.push(Stmt::ParFor {
            var,
            trip,
            sched,
            body,
        });
    }

    /// Opens a critical section.
    pub fn critical(&mut self, f: impl FnOnce(&mut Self)) {
        self.scopes.push(Vec::new());
        f(self);
        let body = self.scopes.pop().expect("critical scope");
        self.push(Stmt::Critical(body));
    }

    /// Loads one element.
    pub fn load(&mut self, arr: ArrayId, idx: impl Into<Idx>) {
        self.push(Stmt::Load {
            arr,
            idx: idx.into(),
        });
    }

    /// Stores one element.
    pub fn store(&mut self, arr: ArrayId, idx: impl Into<Idx>) {
        self.push(Stmt::Store {
            arr,
            idx: idx.into(),
        });
    }

    /// Appends `n` integer ALU operations.
    pub fn alu(&mut self, n: u32) {
        if n > 0 {
            self.push(Stmt::Alu(n));
        }
    }

    /// Appends `n` integer multiplies.
    pub fn mul(&mut self, n: u32) {
        if n > 0 {
            self.push(Stmt::Mul(n));
        }
    }

    /// Appends `n` integer divides.
    pub fn div(&mut self, n: u32) {
        if n > 0 {
            self.push(Stmt::Div(n));
        }
    }

    /// Appends `n` floating-point add/mul operations.
    pub fn fp(&mut self, n: u32) {
        if n > 0 {
            self.push(Stmt::Fp(n));
        }
    }

    /// Appends `n` floating-point divides.
    pub fn fp_div(&mut self, n: u32) {
        if n > 0 {
            self.push(Stmt::FpDiv(n));
        }
    }

    /// Appends `n` explicit active-wait cycles.
    pub fn nop(&mut self, n: u32) {
        if n > 0 {
            self.push(Stmt::Nop(n));
        }
    }

    /// Appends `n` arithmetic operations of the kernel's element type:
    /// FP ops for `f32` instances, ALU ops for `i32` instances.
    ///
    /// This is how dataset kernels stay parametric in the data type, the
    /// central knob the paper turns to expose FPU contention.
    pub fn compute(&mut self, n: u32) {
        match self.dtype {
            DType::I32 => self.alu(n),
            DType::F32 => self.fp(n),
        }
    }

    /// Appends `n` multiplies of the kernel's element type.
    pub fn compute_mul(&mut self, n: u32) {
        match self.dtype {
            DType::I32 => self.mul(n),
            DType::F32 => self.fp(n),
        }
    }

    /// Appends `n` divides of the kernel's element type.
    pub fn compute_div(&mut self, n: u32) {
        match self.dtype {
            DType::I32 => self.div(n),
            DType::F32 => self.fp_div(n),
        }
    }

    /// Appends a cluster-wide barrier (top level only; validated by
    /// [`KernelBuilder::build`]).
    pub fn barrier(&mut self) {
        self.push(Stmt::Barrier);
    }

    /// Stages `words` words from an L2 array into a TCDM array via the
    /// cluster DMA (top level only; blocking).
    pub fn dma_in(&mut self, l2: ArrayId, tcdm: ArrayId, words: u64) {
        self.push(Stmt::DmaTransfer {
            l2,
            tcdm,
            words,
            inbound: true,
            blocking: true,
        });
    }

    /// Writes `words` words from a TCDM array back to an L2 array via the
    /// cluster DMA (top level only; blocking).
    pub fn dma_out(&mut self, l2: ArrayId, tcdm: ArrayId, words: u64) {
        self.push(Stmt::DmaTransfer {
            l2,
            tcdm,
            words,
            inbound: false,
            blocking: true,
        });
    }

    /// Starts an asynchronous L2 → TCDM transfer (pair with
    /// [`KernelBuilder::dma_wait`] before touching the destination).
    pub fn dma_in_async(&mut self, l2: ArrayId, tcdm: ArrayId, words: u64) {
        self.push(Stmt::DmaTransfer {
            l2,
            tcdm,
            words,
            inbound: true,
            blocking: false,
        });
    }

    /// Waits for all outstanding asynchronous DMA transfers.
    pub fn dma_wait(&mut self) {
        self.push(Stmt::DmaWait);
    }

    /// Finalises and validates the kernel.
    ///
    /// # Errors
    ///
    /// Returns the first structural defect found by [`validate`]: memory
    /// overflow, out-of-bounds indices, nested parallelism, misplaced
    /// barriers or out-of-scope loop variables.
    pub fn build(mut self) -> Result<Kernel, ValidateKernelError> {
        assert_eq!(self.scopes.len(), 1, "unclosed builder scopes");
        let kernel = Kernel {
            name: self.name,
            suite: self.suite,
            dtype: self.dtype,
            payload_bytes: self.payload_bytes,
            arrays: self.arrays,
            body: self.scopes.pop().expect("root scope"),
        };
        validate(&kernel)?;
        Ok(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_structure() {
        let mut b = KernelBuilder::new("k", Suite::Custom, DType::I32, 64);
        let a = b.array("a", 16);
        b.par_for(4, |b, i| {
            b.for_(4, |b, j| {
                b.load(a, i * 4 + j);
                b.compute(1);
            });
            b.store(a, i);
        });
        let k = b.build().expect("valid kernel");
        assert_eq!(k.body.len(), 1);
        let mut loads = 0;
        k.visit(|s| {
            if matches!(s, Stmt::Load { .. }) {
                loads += 1;
            }
        });
        assert_eq!(loads, 1);
    }

    #[test]
    fn compute_dispatches_on_dtype() {
        let mut bi = KernelBuilder::new("k", Suite::Custom, DType::I32, 4);
        bi.compute(3);
        let ki = bi.build().expect("valid");
        assert_eq!(ki.body, vec![Stmt::Alu(3)]);

        let mut bf = KernelBuilder::new("k", Suite::Custom, DType::F32, 4);
        bf.compute(3);
        let kf = bf.build().expect("valid");
        assert_eq!(kf.body, vec![Stmt::Fp(3)]);
    }

    #[test]
    fn zero_count_ops_are_elided() {
        let mut b = KernelBuilder::new("k", Suite::Custom, DType::I32, 4);
        b.alu(0);
        b.fp(0);
        let k = b.build().expect("valid");
        assert!(k.body.is_empty());
    }

    #[test]
    fn critical_wraps_body() {
        let mut b = KernelBuilder::new("k", Suite::Custom, DType::I32, 4);
        b.par_for(8, |b, _i| {
            b.critical(|b| b.alu(1));
        });
        let k = b.build().expect("valid");
        let mut criticals = 0;
        k.visit(|s| {
            if matches!(s, Stmt::Critical(_)) {
                criticals += 1;
            }
        });
        assert_eq!(criticals, 1);
    }
}
