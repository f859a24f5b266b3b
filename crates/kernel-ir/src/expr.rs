//! Affine index expressions over loop variables.
//!
//! Array indices in the kernel IR are affine combinations of enclosing loop
//! induction variables: `Σ coeff_v · v + constant`. Operator overloading
//! makes kernel sources read naturally:
//!
//! ```
//! use kernel_ir::expr::{Idx, LoopVar};
//!
//! let i = LoopVar::for_tests(0);
//! let j = LoopVar::for_tests(1);
//! let idx: Idx = i * 8 + j + 1; // A[i][j+1] of an 8-wide matrix
//! assert_eq!(idx.coeff(i), 8);
//! assert_eq!(idx.coeff(j), 1);
//! assert_eq!(idx.constant(), 1);
//! ```

use serde::{Deserialize, Serialize};
use std::ops::{Add, Mul, Neg, Sub};

/// An opaque loop induction variable handle.
///
/// Loop variables are created by the kernel builder when opening loops; the
/// numeric id is unique within one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LoopVar(pub(crate) u32);

impl LoopVar {
    /// Creates a loop variable with an explicit id, for unit tests only.
    pub fn for_tests(id: u32) -> Self {
        Self(id)
    }

    /// The kernel-unique id of this variable.
    pub fn id(self) -> u32 {
        self.0
    }
}

/// An affine index expression `Σ coeff_v · v + constant` (element units).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Idx {
    terms: Vec<(LoopVar, i64)>,
    constant: i64,
}

impl Idx {
    /// The zero index.
    pub fn zero() -> Self {
        Self {
            terms: Vec::new(),
            constant: 0,
        }
    }

    /// A constant index.
    pub fn constant_of(c: i64) -> Self {
        Self {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The constant part of the expression.
    pub fn constant(&self) -> i64 {
        self.constant
    }

    /// The coefficient of `v` (zero if `v` does not appear).
    pub fn coeff(&self, v: LoopVar) -> i64 {
        self.terms
            .iter()
            .find(|(t, _)| *t == v)
            .map_or(0, |(_, c)| *c)
    }

    /// Iterates over the `(variable, coefficient)` terms.
    pub fn terms(&self) -> impl Iterator<Item = (LoopVar, i64)> + '_ {
        self.terms.iter().copied()
    }

    fn add_term(&mut self, v: LoopVar, c: i64) {
        if c == 0 {
            return;
        }
        if let Some(slot) = self.terms.iter_mut().find(|(t, _)| *t == v) {
            slot.1 += c;
            if slot.1 == 0 {
                self.terms.retain(|(_, c)| *c != 0);
            }
        } else {
            self.terms.push((v, c));
        }
    }

    /// Rewrites every occurrence of `var` as `scale · new_var + offset`
    /// (or just `offset` when `new_var` is `None`). Used by loop
    /// transformations such as unrolling.
    pub fn replace_var_affine(
        &self,
        var: LoopVar,
        new_var: Option<LoopVar>,
        scale: i64,
        offset: i64,
    ) -> Idx {
        let mut out = Idx {
            terms: Vec::new(),
            constant: self.constant,
        };
        for (v, c) in self.terms() {
            if v == var {
                out.constant += c * offset;
                if let Some(nv) = new_var {
                    out.add_term(nv, c * scale);
                }
            } else {
                out.add_term(v, c);
            }
        }
        out
    }

    /// Evaluates the expression with a lookup for variable values.
    ///
    /// Used by validation (interval analysis) and by tests; lowering instead
    /// translates the expression into the simulator's [`pulp_sim::AddrExpr`].
    pub fn eval(&self, lookup: impl Fn(LoopVar) -> i64) -> i64 {
        self.constant + self.terms.iter().map(|&(v, c)| c * lookup(v)).sum::<i64>()
    }
}

impl Default for Idx {
    fn default() -> Self {
        Self::zero()
    }
}

impl From<LoopVar> for Idx {
    fn from(v: LoopVar) -> Self {
        Self {
            terms: vec![(v, 1)],
            constant: 0,
        }
    }
}

impl From<usize> for Idx {
    fn from(c: usize) -> Self {
        Self::constant_of(c as i64)
    }
}

impl From<i64> for Idx {
    fn from(c: i64) -> Self {
        Self::constant_of(c)
    }
}

impl From<i32> for Idx {
    fn from(c: i32) -> Self {
        Self::constant_of(i64::from(c))
    }
}

impl Add for Idx {
    type Output = Idx;
    fn add(mut self, rhs: Idx) -> Idx {
        self.constant += rhs.constant;
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self
    }
}

impl Add<LoopVar> for Idx {
    type Output = Idx;
    fn add(mut self, rhs: LoopVar) -> Idx {
        self.add_term(rhs, 1);
        self
    }
}

impl Add<usize> for Idx {
    type Output = Idx;
    fn add(mut self, rhs: usize) -> Idx {
        self.constant += rhs as i64;
        self
    }
}

impl Sub<usize> for Idx {
    type Output = Idx;
    fn sub(mut self, rhs: usize) -> Idx {
        self.constant -= rhs as i64;
        self
    }
}

impl Mul<usize> for Idx {
    type Output = Idx;
    fn mul(mut self, rhs: usize) -> Idx {
        let k = rhs as i64;
        self.constant *= k;
        for t in &mut self.terms {
            t.1 *= k;
        }
        self.terms.retain(|(_, c)| *c != 0);
        self
    }
}

impl Neg for Idx {
    type Output = Idx;
    fn neg(mut self) -> Idx {
        self.constant = -self.constant;
        for t in &mut self.terms {
            t.1 = -t.1;
        }
        self
    }
}

impl Sub<LoopVar> for Idx {
    type Output = Idx;
    fn sub(mut self, rhs: LoopVar) -> Idx {
        self.add_term(rhs, -1);
        self
    }
}

impl Sub<Idx> for Idx {
    type Output = Idx;
    fn sub(self, rhs: Idx) -> Idx {
        self + (-rhs)
    }
}

impl Neg for LoopVar {
    type Output = Idx;
    fn neg(self) -> Idx {
        -Idx::from(self)
    }
}

impl Add<LoopVar> for LoopVar {
    type Output = Idx;
    fn add(self, rhs: LoopVar) -> Idx {
        Idx::from(self) + rhs
    }
}

impl Add<usize> for LoopVar {
    type Output = Idx;
    fn add(self, rhs: usize) -> Idx {
        Idx::from(self) + rhs
    }
}

impl Sub<usize> for LoopVar {
    type Output = Idx;
    fn sub(self, rhs: usize) -> Idx {
        Idx::from(self) - rhs
    }
}

impl Add<Idx> for LoopVar {
    type Output = Idx;
    fn add(self, rhs: Idx) -> Idx {
        Idx::from(self) + rhs
    }
}

impl Mul<usize> for LoopVar {
    type Output = Idx;
    fn mul(self, rhs: usize) -> Idx {
        Idx::from(self) * rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(id: u32) -> LoopVar {
        LoopVar::for_tests(id)
    }

    #[test]
    fn builds_row_major_index() {
        let (i, j) = (v(0), v(1));
        let idx = i * 16 + j;
        assert_eq!(idx.coeff(i), 16);
        assert_eq!(idx.coeff(j), 1);
        assert_eq!(idx.constant(), 0);
    }

    #[test]
    fn merges_duplicate_terms() {
        let i = v(0);
        let idx = i * 3 + i; // 4*i
        assert_eq!(idx.coeff(i), 4);
        assert_eq!(idx.terms().count(), 1);
    }

    #[test]
    fn cancelling_terms_disappear() {
        let i = v(0);
        let zero = usize::from(false);
        let idx = (i * 2 + Idx::zero()) + (Idx::from(i) * zero);
        assert_eq!(idx.coeff(i), 2);
        let neg = Idx {
            terms: vec![(i, -2)],
            constant: 0,
        };
        let sum = idx + neg;
        assert_eq!(sum.coeff(i), 0);
        assert_eq!(sum.terms().count(), 0);
    }

    #[test]
    fn scaling_distributes() {
        let (i, j) = (v(0), v(1));
        let idx = (i + j + 5usize) * 4;
        assert_eq!(idx.coeff(i), 4);
        assert_eq!(idx.coeff(j), 4);
        assert_eq!(idx.constant(), 20);
    }

    #[test]
    fn eval_substitutes() {
        let (i, j) = (v(0), v(1));
        let idx = i * 8 + j + 2usize;
        let val = idx.eval(|var| if var == i { 3 } else { 5 });
        assert_eq!(val, 8 * 3 + 5 + 2);
    }

    #[test]
    fn replace_var_affine_rewrites_terms() {
        let (i, j, u) = (v(0), v(1), v(9));
        let idx = i * 8 + j + 2usize;
        // i -> 4u + 3: coefficient 8 becomes 32 on u, constant gains 24.
        let out = idx.replace_var_affine(i, Some(u), 4, 3);
        assert_eq!(out.coeff(u), 32);
        assert_eq!(out.coeff(j), 1);
        assert_eq!(out.coeff(i), 0);
        assert_eq!(out.constant(), 2 + 24);
        // i -> constant 5.
        let fixed = idx.replace_var_affine(i, None, 0, 5);
        assert_eq!(fixed.coeff(i), 0);
        assert_eq!(fixed.constant(), 2 + 40);
    }

    #[test]
    fn subtraction_of_constants() {
        let i = v(0);
        let idx = i - 1;
        assert_eq!(idx.constant(), -1);
        assert_eq!(idx.coeff(i), 1);
    }
}
