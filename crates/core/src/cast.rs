//! Safe byte views over plain-old-data element slices.
//!
//! The point-to-point layer moves bytes; collectives are generic over
//! element types. [`Scalar`] is a sealed trait over the fixed-size
//! primitive numeric types, providing zero-copy `&[T] ↔ &[u8]` views
//! (bytes back to elements only where they happen to be aligned: a
//! combining receive reads a lent window that way), a typed view of the
//! word arena the collectives borrow their workspace from, and the
//! element-wise ⊕ of the combining collectives (every transportable
//! type is numeric, so every one combines). The crate's only `unsafe`
//! blocks live here, justified by the sealed-POD bound and, for the ⊕
//! kernel, by the CPU's detected features.
//!
//! # The ⊕ kernel
//!
//! Every fold and combine of the library — the direct path's
//! [`GroupComm::fold`](crate::GroupComm::fold), a compiled program's
//! [`Fold`](crate::ir::Fold), a backend's in-flight combine — ends in
//! [`ReduceOp::fold_into`] or [`ReduceOp::combine_into`], and those in
//! one loop body here, written once with the operator matched outside
//! the loop so that each of its four arms is a plain element loop the
//! compiler vectorizes. The body is compiled three times on x86-64: for
//! the target's baseline (SSE2 unless the build says more), under
//! `#[target_feature]` for AVX2, and for AVX-512 (F, BW, DQ and VL).
//! `Tier::detected` picks the widest one the CPU runs with
//! `is_x86_feature_detected!` on the first fold of the process and
//! remembers it; every later fold reads that one value. Other
//! architectures have the baseline body only. There is no setting.
//!
//! Every tier computes the same elementwise function, bit for bit, with
//! one exception: a float `Sum` or `Prod` of two NaNs is a NaN whose
//! sign and payload may come from either operand (the scalar
//! instructions return the first's, the vector bodies may return the
//! second's), as Rust leaves them unspecified. A NaN against a number,
//! `Max` and `Min` on signed zeros and NaNs, infinities, subnormals and
//! integer wraparound agree to the bit.

use crate::op::ReduceOp;
use std::ops::{Add, Mul};
use std::sync::OnceLock;

mod sealed {
    pub trait Sealed {}
}

/// A plain-old-data element type that can be transported by the library.
///
/// Sealed: implemented exactly for `u8, i8, u16, i16, u32, i32, u64, i64,
/// f32, f64, usize`. All implementors are `Copy`, have no padding, no
/// niches, and accept any bit pattern — which is what makes the byte
/// views sound.
pub trait Scalar: Copy + Default + PartialEq + std::fmt::Debug + sealed::Sealed + 'static {
    /// Size of one element in bytes.
    const SIZE: usize;

    /// Applies `op` to a pair of elements (integers wrap).
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self;

    /// Views a slice of elements as its underlying bytes.
    fn as_bytes(slice: &[Self]) -> &[u8] {
        // SAFETY: `Self` is a sealed POD type with no padding bytes; any
        // `&[Self]` is a valid initialized byte region of
        // `len * SIZE` bytes, and `u8` has alignment 1.
        unsafe { std::slice::from_raw_parts(slice.as_ptr().cast::<u8>(), slice.len() * Self::SIZE) }
    }

    /// Views a mutable slice of elements as its underlying bytes.
    fn as_bytes_mut(slice: &mut [Self]) -> &mut [u8] {
        // SAFETY: as in `as_bytes`; additionally, every bit pattern is a
        // valid `Self` for the sealed POD implementors, so writes through
        // the byte view cannot create invalid values.
        unsafe {
            std::slice::from_raw_parts_mut(
                slice.as_mut_ptr().cast::<u8>(),
                slice.len() * Self::SIZE,
            )
        }
    }

    /// Views bytes that hold whole elements as those elements, where
    /// they lie: `None` when the region is not aligned for `Self` or its
    /// length is not a multiple of [`Scalar::SIZE`] (a window onto
    /// another rank's bytes promises neither; the caller copies then).
    fn from_bytes(bytes: &[u8]) -> Option<&[Self]> {
        // SAFETY: every bit pattern is a valid `Self` for the sealed
        // POD implementors, so the aligned middle `align_to` returns is
        // a valid `&[Self]` over initialized bytes.
        match unsafe { bytes.align_to::<Self>() } {
            ([], elems, []) => Some(elems),
            _ => None,
        }
    }

    /// Views the front of a word arena as `len` elements of workspace,
    /// growing the arena first if it is too short. The arena only ever
    /// grows and is never re-zeroed: the view holds whatever an earlier
    /// borrower (of any element type) left there, so a caller writes
    /// every element before it reads it.
    fn scratch(arena: &mut Vec<u64>, len: usize) -> &mut [Self] {
        const { assert!(std::mem::align_of::<Self>() <= std::mem::align_of::<u64>()) };
        let words = (len * Self::SIZE).div_ceil(std::mem::size_of::<u64>());
        grow_arena(arena, words);
        // SAFETY: the arena holds at least `len * SIZE` initialized
        // bytes (just ensured), its base is aligned for `u64` and hence
        // for `Self` (asserted above), `u64` has no padding and every
        // bit pattern is a valid `Self` for the sealed POD implementors;
        // the view borrows the arena mutably for its whole lifetime.
        unsafe { std::slice::from_raw_parts_mut(arena.as_mut_ptr().cast::<Self>(), len) }
    }
}

/// Grows a word arena to at least `words` words, keeping what it holds.
/// An empty arena's words come from a zeroed allocation, which the
/// allocator hands out without writing them, so bytes no caller writes
/// take no resident memory (`Vec::resize` writes a zero to each); a
/// later growth reallocates as `Vec::resize` does.
pub(crate) fn grow_arena(arena: &mut Vec<u64>, words: usize) {
    if arena.is_empty() && words > 0 {
        *arena = vec![0; words];
    } else if arena.len() < words {
        arena.resize(words, 0);
    }
}

/// Grows a word arena to at least `words` words whose contents do not
/// matter: the old allocation is freed before the new, zeroed one is
/// made, so the two are never resident together and bytes no caller
/// writes — a landing the backend never lands in because it lends the
/// sender's bytes, a replay's arguments — take no resident memory.
pub(crate) fn regrow_arena(arena: &mut Vec<u64>, words: usize) {
    if arena.len() < words {
        *arena = Vec::new();
        *arena = vec![0; words];
    }
}

/// The mutable twin of [`Scalar::from_bytes`], for handing a typed
/// buffer that travelled as [`Scalar::as_bytes_mut`] back to its owner.
pub(crate) fn typed_mut<T: Scalar>(bytes: &mut [u8]) -> Option<&mut [T]> {
    // SAFETY: as in `from_bytes`; every bit pattern being a valid `T`
    // also makes every write through the typed view a valid byte state.
    match unsafe { bytes.align_to_mut::<T>() } {
        ([], elems, []) => Some(elems),
        _ => None,
    }
}

/// The instruction sets the ⊕ kernel is compiled for. Only
/// [`Tier::detected`] and [`Tier::available`] make one, and each
/// makes only tiers this CPU runs: that is what lets [`fold`] and
/// [`combine`] call a tier's body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tier(Isa);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// The target's baseline: every CPU of the target runs it.
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512 F, BW, DQ and VL.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Tier {
    /// The widest tier this CPU runs, detected on the first call of the
    /// process and remembered.
    #[inline]
    pub(crate) fn detected() -> Tier {
        static DETECTED: OnceLock<Tier> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            *Tier::available()
                .last()
                .expect("the baseline runs anywhere")
        })
    }

    /// Every tier this CPU runs, narrowest first.
    pub(crate) fn available() -> Vec<Tier> {
        #[allow(unused_mut)]
        let mut tiers = vec![Tier(Isa::Baseline)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                tiers.push(Tier(Isa::Avx2));
            }
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512vl")
            {
                tiers.push(Tier(Isa::Avx512));
            }
        }
        tiers
    }
}

/// `acc[i] = acc[i] ⊕ other[i]` over the shorter of the two, compiled
/// for `tier`.
#[inline]
pub(crate) fn fold<T: Scalar>(tier: Tier, op: ReduceOp, acc: &mut [T], other: &[T]) {
    match tier.0 {
        // SAFETY: a `Tier` holds `Isa::Avx512` only where `Tier::available`
        // found AVX-512 F, BW, DQ and VL on this CPU.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { fold_avx512(op, acc, other) },
        // SAFETY: as above, with AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { fold_avx2(op, acc, other) },
        Isa::Baseline => fold_body(op, acc, other),
    }
}

/// `out[i] = a[i] ⊕ b[i]` over the shortest of the three, compiled for
/// `tier`.
#[inline]
pub(crate) fn combine<T: Scalar>(tier: Tier, op: ReduceOp, out: &mut [T], a: &[T], b: &[T]) {
    match tier.0 {
        // SAFETY: as in `fold`.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { combine_avx512(op, out, a, b) },
        // SAFETY: as in `fold`.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { combine_avx2(op, out, a, b) },
        Isa::Baseline => combine_body(op, out, a, b),
    }
}

/// The one fold loop: `op` is matched once, outside it, so each arm is
/// a loop over one inlined `T::combine` the compiler vectorizes.
#[inline(always)]
fn fold_body<T: Scalar>(op: ReduceOp, acc: &mut [T], other: &[T]) {
    macro_rules! each {
        ($op:expr) => {
            for (a, &b) in acc.iter_mut().zip(other) {
                *a = T::combine($op, *a, b);
            }
        };
    }
    match op {
        ReduceOp::Sum => each!(ReduceOp::Sum),
        ReduceOp::Prod => each!(ReduceOp::Prod),
        ReduceOp::Max => each!(ReduceOp::Max),
        ReduceOp::Min => each!(ReduceOp::Min),
    }
}

/// The one three-operand loop, shaped as [`fold_body`].
#[inline(always)]
fn combine_body<T: Scalar>(op: ReduceOp, out: &mut [T], a: &[T], b: &[T]) {
    macro_rules! each {
        ($op:expr) => {
            for ((o, &a), &b) in out.iter_mut().zip(a).zip(b) {
                *o = T::combine($op, a, b);
            }
        };
    }
    match op {
        ReduceOp::Sum => each!(ReduceOp::Sum),
        ReduceOp::Prod => each!(ReduceOp::Prod),
        ReduceOp::Max => each!(ReduceOp::Max),
        ReduceOp::Min => each!(ReduceOp::Min),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fold_avx2<T: Scalar>(op: ReduceOp, acc: &mut [T], other: &[T]) {
    fold_body(op, acc, other)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn fold_avx512<T: Scalar>(op: ReduceOp, acc: &mut [T], other: &[T]) {
    fold_body(op, acc, other)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn combine_avx2<T: Scalar>(op: ReduceOp, out: &mut [T], a: &[T], b: &[T]) {
    combine_body(op, out, a, b)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn combine_avx512<T: Scalar>(op: ReduceOp, out: &mut [T], a: &[T], b: &[T]) {
    combine_body(op, out, a, b)
}

macro_rules! impl_scalar {
    ($add:ident, $mul:ident; $($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl Scalar for $t {
            const SIZE: usize = std::mem::size_of::<$t>();

            #[inline(always)]
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a.$add(b),
                    ReduceOp::Prod => a.$mul(b),
                    ReduceOp::Max => a.max(b),
                    ReduceOp::Min => a.min(b),
                }
            }
        }
    )*};
}

impl_scalar!(wrapping_add, wrapping_mul; u8, i8, u16, i16, u32, i32, u64, i64, usize);
impl_scalar!(add, mul; f32, f64);

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::hint::black_box;

    pub(crate) const OPS: [ReduceOp; 4] =
        [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min];

    /// Values at which a type's ⊕ turns a corner: wraparound for the
    /// integers; signed zeros, infinities, subnormals and NaNs (quiet,
    /// signalling, signed, with a payload) for the floats.
    pub(crate) trait Edges: Scalar {
        const EDGES: &'static [Self];
    }

    macro_rules! int_edges {
        ($($t:ty),*) => {$(
            impl Edges for $t {
                const EDGES: &'static [Self] = &[
                    0,
                    1,
                    2,
                    <$t>::MAX,
                    <$t>::MAX - 1,
                    <$t>::MIN,
                    <$t>::MIN.wrapping_add(1),
                    <$t>::MAX / 2 + 1,
                    (0 as $t).wrapping_sub(1),
                ];
            }
        )*};
    }
    int_edges!(u8, i8, u16, i16, u32, i32, u64, i64, usize);

    macro_rules! float_edges {
        ($($t:ident),*) => {$(
            impl Edges for $t {
                const EDGES: &'static [Self] = &[
                    0.0,
                    -0.0,
                    1.0,
                    -1.5,
                    $t::EPSILON,
                    $t::INFINITY,
                    $t::NEG_INFINITY,
                    $t::MAX,
                    $t::MIN,
                    $t::MIN_POSITIVE,
                    $t::from_bits(1),
                    -$t::from_bits(1),
                    $t::from_bits($t::MIN_POSITIVE.to_bits() - 1),
                    $t::NAN,
                    -$t::NAN,
                    $t::from_bits($t::NAN.to_bits() | 5),
                    $t::from_bits($t::INFINITY.to_bits() | 1),
                ];
            }
        )*};
    }
    float_edges!(f32, f64);

    /// Runs `$check::<T>()` for every `Scalar` type.
    macro_rules! for_every_scalar {
        ($check:ident) => {
            $check::<u8>();
            $check::<i8>();
            $check::<u16>();
            $check::<i16>();
            $check::<u32>();
            $check::<i32>();
            $check::<u64>();
            $check::<i64>();
            $check::<usize>();
            $check::<f32>();
            $check::<f64>();
        };
    }
    pub(crate) use for_every_scalar;

    /// `len` elements, about half of them edges and the rest random
    /// bits, drawn from `salt`.
    pub(crate) fn operand<T: Edges>(len: usize, salt: u64) -> Vec<T> {
        let mut rng = SplitMix64::new(salt);
        (0..len)
            .map(|_| {
                let word = [rng.next_u64()];
                match word[0] % 2 {
                    0 => T::EDGES[rng.below(T::EDGES.len())],
                    _ => T::from_bytes(&u64::as_bytes(&word)[..T::SIZE])
                        .expect("a word is aligned")[0],
                }
            })
            .collect()
    }

    fn is_nan<T: Scalar>(x: T) -> bool {
        #[allow(clippy::eq_op)]
        let nan = x != x;
        nan
    }

    /// Asserts that `got[i]` is `want[i]` bit for bit, except where
    /// `a[i]` and `b[i]` are both NaN: there it must be a NaN.
    pub(crate) fn assert_same<T: Scalar>(got: &[T], want: &[T], a: &[T], b: &[T], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for i in 0..got.len() {
            let (g, w) = (&got[i..=i], &want[i..=i]);
            if is_nan(a[i]) && is_nan(b[i]) {
                assert!(is_nan(g[0]), "{what}: NaN ⊕ NaN at {i} is {:?}", g[0]);
            } else {
                assert_eq!(
                    T::as_bytes(g),
                    T::as_bytes(w),
                    "{what} at {i}: {:?} ⊕ {:?} gave {:?}, not {:?}",
                    a[i],
                    b[i],
                    g[0],
                    w[0]
                );
            }
        }
    }

    /// The scalar reference: one element at a time, each result pinned
    /// by `black_box` so that no loop around it is vectorized.
    fn reference<T: Scalar>(op: ReduceOp, a: &[T], b: &[T]) -> Vec<T> {
        a.iter()
            .zip(b)
            .map(|(&a, &b)| black_box(T::combine(op, black_box(a), b)))
            .collect()
    }

    /// Every tier, and the dispatched kernel, against the scalar
    /// reference for `T`, at every length through 129 (past the widest
    /// vector's tail and its unrolled loop) and at starts off a vector
    /// boundary; and per tier, combine against copy-then-fold.
    fn kernel_matches_the_scalar_loop<T: Edges>() {
        let tiers = Tier::available();
        for op in OPS {
            for len in 0..=129 {
                let off = len % 4;
                let salt = (len as u64) << 8 | T::SIZE as u64;
                let a = &operand::<T>(len + off, salt)[off..];
                let b = &operand::<T>(len + 3, !salt)[3..];
                let want = reference(op, a, b);
                let what =
                    |how: &str| format!("{op:?} over {len} {} ({how})", std::any::type_name::<T>());
                let mut dispatched = a.to_vec();
                op.fold_into(&mut dispatched, b);
                assert_same(&dispatched, &want, a, b, &what("fold_into"));
                let mut dispatched = vec![T::default(); len];
                op.combine_into(&mut dispatched, a, b);
                assert_same(&dispatched, &want, a, b, &what("combine_into"));
                for &tier in &tiers {
                    let mut folded = a.to_vec();
                    fold(tier, op, &mut folded, b);
                    assert_same(&folded, &want, a, b, &what(&format!("{tier:?} fold")));
                    let mut combined = b.to_vec();
                    combine(tier, op, &mut combined, a, b);
                    assert_same(
                        &combined,
                        &folded,
                        a,
                        b,
                        &what(&format!("{tier:?} combine")),
                    );
                }
            }
        }
    }

    #[test]
    fn every_tier_of_the_kernel_is_the_scalar_loop_bit_for_bit() {
        assert_eq!(Tier::available()[0], Tier(Isa::Baseline));
        for_every_scalar!(kernel_matches_the_scalar_loop);
    }

    #[test]
    fn u8_roundtrip_is_identity() {
        let v = [1u8, 2, 3];
        assert_eq!(<u8 as Scalar>::as_bytes(&v), &[1, 2, 3]);
    }

    #[test]
    fn f64_byte_length() {
        let v = [1.0f64, 2.0];
        assert_eq!(<f64 as Scalar>::as_bytes(&v).len(), 16);
    }

    #[test]
    fn write_through_mut_view() {
        let mut v = [0u32; 2];
        let b = <u32 as Scalar>::as_bytes_mut(&mut v);
        b[0] = 0x2A; // little-endian low byte of v[0]
        assert_eq!(v[0].to_le() & 0xFF, 0x2A);
    }

    #[test]
    fn roundtrip_preserves_values() {
        let src = [3.5f32, -1.25, f32::MAX];
        let mut dst = [0.0f32; 3];
        <f32 as Scalar>::as_bytes_mut(&mut dst).copy_from_slice(<f32 as Scalar>::as_bytes(&src));
        assert_eq!(src, dst);
    }

    #[test]
    fn from_bytes_views_aligned_whole_elements_only() {
        let v = [1.5f64, -2.0, 3.25];
        let bytes = <f64 as Scalar>::as_bytes(&v);
        assert_eq!(<f64 as Scalar>::from_bytes(bytes), Some(&v[..]));
        assert_eq!(<f64 as Scalar>::from_bytes(&bytes[..0]), Some(&v[..0]));
        // Off by one byte: misaligned; one byte short: a torn element.
        assert_eq!(<f64 as Scalar>::from_bytes(&bytes[1..17]), None);
        assert_eq!(<f64 as Scalar>::from_bytes(&bytes[..23]), None);
        assert_eq!(<u8 as Scalar>::from_bytes(&bytes[1..4]).unwrap().len(), 3);
        let mut w = [7i32, 8];
        let view = typed_mut::<i32>(<i32 as Scalar>::as_bytes_mut(&mut w)).unwrap();
        view[1] = 9;
        assert_eq!(w, [7, 9]);
        assert!(typed_mut::<i32>(&mut <i32 as Scalar>::as_bytes_mut(&mut w)[1..5]).is_none());
    }

    #[test]
    fn scratch_grows_once_and_keeps_its_bytes() {
        let mut arena = Vec::new();
        assert!(<u8 as Scalar>::scratch(&mut arena, 0).is_empty());
        assert_eq!(
            arena.capacity(),
            0,
            "no workspace asked for, none allocated"
        );
        <u8 as Scalar>::scratch(&mut arena, 9).fill(0xAB);
        assert_eq!(arena.len(), 2);
        // A shorter view of another type sees the same bytes, un-zeroed.
        let halves = <u16 as Scalar>::scratch(&mut arena, 4);
        assert_eq!(halves, [0xABAB; 4]);
        assert_eq!(<f64 as Scalar>::scratch(&mut arena, 3).len(), 3);
        assert_eq!(arena.len(), 3);
    }

    #[test]
    fn empty_slice() {
        let v: [i64; 0] = [];
        assert!(<i64 as Scalar>::as_bytes(&v).is_empty());
    }
}
