//! Combine operations ⊕ (paper §3): associative and commutative
//! element-wise reductions such as summation or element-wise product.
//!
//! Every fold and combine of the library ends in [`ReduceOp::fold_into`]
//! or [`ReduceOp::combine_into`]: the direct path's, a compiled
//! program's (`ir::Fold`; only an operand that lies misaligned is
//! folded element by element there), a backend's combines out of a lent
//! window and the simulator engine's. Both run the ⊕ kernel of
//! [`cast`]: one loop body compiled for the target's
//! baseline and, on x86-64, for AVX2 and AVX-512, of which the widest
//! the CPU runs is detected once per process. The tiers agree bit for
//! bit except on a NaN ⊕ NaN, whose result is a NaN of either
//! operand's sign and payload (Rust leaves them unspecified): the
//! scalar instructions return the first operand's, the vector bodies
//! may return the second's. `Max` and `Min` agree on signed zeros and
//! NaNs against numbers.

/// The reduction operator applied element-wise by the combining
/// collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise sum (the paper's "global sum" / `gdsum`).
    Sum,
    /// Element-wise product.
    Prod,
    /// Element-wise maximum (`gdhigh`). For floats, NaN inputs propagate
    /// per `f64::max` semantics (NaN is ignored unless both are NaN).
    Max,
    /// Element-wise minimum (`gdlow`).
    Min,
}

/// The element bound of the combining collectives: the same sealed
/// set of numeric types as [`Scalar`](crate::Scalar), under the name their signatures
/// have always used.
pub use crate::cast::Scalar as Elem;

use crate::cast::{self, Tier};

impl ReduceOp {
    /// Combines `other` into `acc` element-wise: `acc[i] ⊕= other[i]`.
    /// Panics if lengths differ (an internal invariant, not user input).
    pub fn fold_into<T: Elem>(&self, acc: &mut [T], other: &[T]) {
        assert_eq!(acc.len(), other.len(), "combine length mismatch");
        cast::fold(Tier::detected(), *self, acc, other);
    }

    /// The three-operand form: `out[i] = a[i] ⊕ b[i]`, `out`'s contents
    /// ignored. With `a` an arrived vector read where it lies this is
    /// `out.copy_from_slice(a); fold_into(out, b)` in one pass, operand
    /// order and therefore bits included, but for a NaN ⊕ NaN's payload
    /// (see the module docs). Panics if lengths differ.
    pub fn combine_into<T: Elem>(&self, out: &mut [T], a: &[T], b: &[T]) {
        assert!(
            out.len() == a.len() && a.len() == b.len(),
            "combine length mismatch"
        );
        cast::combine(Tier::detected(), *self, out, a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_fold() {
        let mut a = [1i32, 2, 3];
        ReduceOp::Sum.fold_into(&mut a, &[10, 20, 30]);
        assert_eq!(a, [11, 22, 33]);
    }

    #[test]
    fn prod_fold() {
        let mut a = [2.0f64, 3.0];
        ReduceOp::Prod.fold_into(&mut a, &[4.0, 5.0]);
        assert_eq!(a, [8.0, 15.0]);
    }

    #[test]
    fn combine_into_is_copy_then_fold_bit_for_bit() {
        // Operand order matters for the bits of a float max/min over
        // signed zeros and NaNs: the one-pass form must keep it.
        let a = [0.0f64, -0.0, f64::NAN, 1.5, 1e308];
        let b = [-0.0f64, 0.0, 2.0, f64::NAN, 1e308];
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min] {
            let mut staged = a;
            op.fold_into(&mut staged, &b);
            let mut fused = [7.0f64; 5];
            op.combine_into(&mut fused, &a, &b);
            assert_eq!(fused.map(f64::to_bits), staged.map(f64::to_bits), "{op:?}");
        }
        let mut out = [0u8; 2];
        ReduceOp::Sum.combine_into(&mut out, &[200, 1], &[100, 2]);
        assert_eq!(out, [44, 3]);
        ReduceOp::Min.combine_into::<i32>(&mut [], &[], &[]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_combine_into_panics() {
        ReduceOp::Sum.combine_into(&mut [0u32; 2], &[1, 2], &[1]);
    }

    #[test]
    fn max_min() {
        assert_eq!(i64::combine(ReduceOp::Max, -3, 7), 7);
        assert_eq!(i64::combine(ReduceOp::Min, -3, 7), -3);
        assert_eq!(f32::combine(ReduceOp::Max, 1.5, 2.5), 2.5);
    }

    #[test]
    fn wrapping_integer_sum() {
        assert_eq!(u8::combine(ReduceOp::Sum, 200, 100), 44);
    }

    #[test]
    fn empty_fold_is_noop() {
        let mut a: [f64; 0] = [];
        ReduceOp::Sum.fold_into(&mut a, &[]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_fold_panics() {
        let mut a = [1u32];
        ReduceOp::Sum.fold_into(&mut a, &[1, 2]);
    }

    #[test]
    fn ops_are_commutative_and_associative_for_ints() {
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min] {
            for a in [-5i64, 0, 3] {
                for b in [-2i64, 7] {
                    for c in [1i64, -9] {
                        assert_eq!(i64::combine(op, a, b), i64::combine(op, b, a));
                        assert_eq!(
                            i64::combine(op, i64::combine(op, a, b), c),
                            i64::combine(op, a, i64::combine(op, b, c))
                        );
                    }
                }
            }
        }
    }
}
