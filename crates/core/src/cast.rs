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
//! blocks live here, justified by the sealed-POD bound.

use crate::op::ReduceOp;
use std::ops::{Add, Mul};

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

macro_rules! impl_scalar {
    ($add:ident, $mul:ident; $($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl Scalar for $t {
            const SIZE: usize = std::mem::size_of::<$t>();

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
mod tests {
    use super::*;

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
