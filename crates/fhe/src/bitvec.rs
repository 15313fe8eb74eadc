//! Packed bit vectors.
//!
//! [`BitVec`] is the plaintext-side representation of a packed SIMD slot
//! vector: bit `i` models the content of slot `i`. It is stored in 64-bit
//! blocks so the bulk slot-wise operations used by the COPSE kernels
//! (XOR, AND, NOT) run word-at-a-time, mirroring how an FHE ciphertext
//! operates on all slots of a packed vector at once.
//!
//! Bit `i` lives in `blocks[i / 64]` at position `i % 64`. All operations
//! keep the trailing bits of the final partial block zeroed, so `Eq`,
//! `Hash` and [`BitVec::count_ones`] can operate on raw blocks.

use serde::{Deserialize, Serialize};
use std::fmt;

const BLOCK_BITS: usize = 64;

/// A fixed-width vector of bits with word-packed storage.
///
/// # Examples
///
/// ```
/// use copse_fhe::BitVec;
///
/// let a = BitVec::from_bools(&[true, false, true, true]);
/// let b = BitVec::from_fn(4, |i| i % 2 == 0);
/// let xor = a.xor(&b);
/// assert_eq!(xor.to_bools(), vec![false, false, false, true]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitVec {
    blocks: Vec<u64>,
    width: usize,
}

impl BitVec {
    /// Creates an all-zero vector of `width` bits.
    pub fn zeros(width: usize) -> Self {
        Self {
            blocks: vec![0; width.div_ceil(BLOCK_BITS)],
            width,
        }
    }

    /// Creates an all-one vector of `width` bits.
    pub fn ones(width: usize) -> Self {
        let mut v = Self {
            blocks: vec![u64::MAX; width.div_ceil(BLOCK_BITS)],
            width,
        };
        v.mask_tail();
        v
    }

    /// Builds a vector from a slice of booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Builds a vector of `width` bits where bit `i` is `f(i)`.
    pub fn from_fn(width: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut v = Self::zeros(width);
        for i in 0..width {
            if f(i) {
                v.set(i, true);
            }
        }
        v
    }

    /// Number of bits in the vector.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Returns `true` if the vector has zero width.
    pub fn is_empty(&self) -> bool {
        self.width == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.width, "bit index {i} out of range {}", self.width);
        (self.blocks[i / BLOCK_BITS] >> (i % BLOCK_BITS)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.width, "bit index {i} out of range {}", self.width);
        let mask = 1u64 << (i % BLOCK_BITS);
        if value {
            self.blocks[i / BLOCK_BITS] |= mask;
        } else {
            self.blocks[i / BLOCK_BITS] &= !mask;
        }
    }

    /// Slot-wise XOR (the FHE `Add` over GF(2)).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn xor(&self, other: &Self) -> Self {
        self.zip_blocks(other, |a, b| a ^ b)
    }

    /// Slot-wise AND (the FHE `Multiply` over GF(2)).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn and(&self, other: &Self) -> Self {
        self.zip_blocks(other, |a, b| a & b)
    }

    /// Slot-wise OR.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn or(&self, other: &Self) -> Self {
        self.zip_blocks(other, |a, b| a | b)
    }

    /// Slot-wise complement.
    pub fn not(&self) -> Self {
        let mut out = Self {
            blocks: self.blocks.iter().map(|b| !b).collect(),
            width: self.width,
        };
        out.mask_tail();
        out
    }

    /// Left rotation: slot `i` of the result is slot `(i + k) mod width`
    /// of `self`. Negative `k` rotates right; any magnitude of `k` is
    /// reduced mod the width. Matches the `Rotate` primitive of the FHE
    /// backends.
    ///
    /// Runs blockwise over the `u64` storage: the result is the OR of
    /// the bit range `[k, width)` shifted down to 0 and the range
    /// `[0, k)` shifted up to `width - k`, each copied a word at a
    /// time.
    pub fn rotate_left(&self, k: isize) -> Self {
        if self.width == 0 {
            return self.clone();
        }
        let w = self.width;
        let k = k.rem_euclid(w as isize) as usize;
        if k == 0 {
            return self.clone();
        }
        let mut out = Self::zeros(w);
        or_bit_range(&mut out.blocks, &self.blocks, k, w - k, 0);
        or_bit_range(&mut out.blocks, &self.blocks, 0, k, w - k);
        out
    }

    /// Keeps the first `new_width` slots.
    ///
    /// # Panics
    ///
    /// Panics if `new_width > self.width()`.
    pub fn truncate(&self, new_width: usize) -> Self {
        assert!(
            new_width <= self.width,
            "truncate grows: {} -> {new_width}",
            self.width
        );
        Self::from_fn(new_width, |i| self.get(i))
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Returns `true` if no bit is set.
    pub fn is_zero(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.width).filter(move |&i| self.get(i))
    }

    /// Expands to a `Vec<bool>`.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.width).map(|i| self.get(i)).collect()
    }

    /// Concatenates two vectors.
    pub fn concat(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.width + other.width);
        for i in 0..self.width {
            if self.get(i) {
                out.set(i, true);
            }
        }
        for i in 0..other.width {
            if other.get(i) {
                out.set(self.width + i, true);
            }
        }
        out
    }

    fn zip_blocks(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(
            self.width, other.width,
            "bit vector width mismatch: {} vs {}",
            self.width, other.width
        );
        Self {
            blocks: self
                .blocks
                .iter()
                .zip(&other.blocks)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            width: self.width,
        }
    }

    fn mask_tail(&mut self) {
        let rem = self.width % BLOCK_BITS;
        if rem != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// Reads the 64-bit window of `src` starting at bit `off`, treating
/// bits past the end of `src` as zero.
#[inline]
fn window(src: &[u64], off: usize) -> u64 {
    let word = off / BLOCK_BITS;
    let bit = off % BLOCK_BITS;
    let lo = src.get(word).copied().unwrap_or(0);
    if bit == 0 {
        lo
    } else {
        let hi = src.get(word + 1).copied().unwrap_or(0);
        (lo >> bit) | (hi << (BLOCK_BITS - bit))
    }
}

/// ORs `len` bits of `src` starting at `src_start` into `dst` starting
/// at `dst_start`, a destination word at a time (up to 64 bits per
/// iteration instead of one).
fn or_bit_range(dst: &mut [u64], src: &[u64], src_start: usize, len: usize, dst_start: usize) {
    let mut copied = 0;
    while copied < len {
        let d_bit = dst_start + copied;
        let off = d_bit % BLOCK_BITS;
        let take = (BLOCK_BITS - off).min(len - copied);
        let mut bits = window(src, src_start + copied);
        if take < BLOCK_BITS {
            bits &= (1u64 << take) - 1;
        }
        dst[d_bit / BLOCK_BITS] |= bits << off;
        copied += take;
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for i in 0..self.width {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.width {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        Self::from_bools(&bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(70);
        assert_eq!(z.width(), 70);
        assert_eq!(z.count_ones(), 0);
        let o = BitVec::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.get(69));
    }

    #[test]
    fn ones_masks_trailing_block() {
        let o = BitVec::ones(65);
        // Equality with a bit-by-bit construction only holds if the tail
        // of the final block is zeroed.
        assert_eq!(o, BitVec::from_fn(65, |_| true));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert_eq!(v.count_ones(), 3);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn xor_and_not() {
        let a = BitVec::from_bools(&[true, true, false, false]);
        let b = BitVec::from_bools(&[true, false, true, false]);
        assert_eq!(a.xor(&b).to_bools(), [false, true, true, false]);
        assert_eq!(a.and(&b).to_bools(), [true, false, false, false]);
        assert_eq!(a.or(&b).to_bools(), [true, true, true, false]);
        assert_eq!(a.not().to_bools(), [false, false, true, true]);
    }

    #[test]
    fn not_is_involutive_across_blocks() {
        let v = BitVec::from_fn(100, |i| i % 3 == 0);
        assert_eq!(v.not().not(), v);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn xor_width_mismatch_panics() {
        let _ = BitVec::zeros(3).xor(&BitVec::zeros(4));
    }

    #[test]
    fn rotate_left_basic() {
        let v = BitVec::from_bools(&[true, false, false, false]);
        assert_eq!(v.rotate_left(1).to_bools(), [false, false, false, true]);
        assert_eq!(v.rotate_left(-1).to_bools(), [false, true, false, false]);
        assert_eq!(v.rotate_left(4), v);
        assert_eq!(v.rotate_left(0), v);
    }

    #[test]
    fn rotate_matches_index_formula() {
        let v = BitVec::from_fn(13, |i| i % 4 == 1);
        let r = v.rotate_left(5);
        for i in 0..13 {
            assert_eq!(r.get(i), v.get((i + 5) % 13));
        }
    }

    #[test]
    fn rotate_empty_is_noop() {
        let v = BitVec::zeros(0);
        assert_eq!(v.rotate_left(3), v);
    }

    #[test]
    fn truncate_keeps_prefix() {
        let v = BitVec::from_bools(&[true, false, true, true]);
        assert_eq!(v.truncate(2).to_bools(), [true, false]);
        assert_eq!(v.truncate(4), v);
    }

    #[test]
    fn concat_orders_bits() {
        let a = BitVec::from_bools(&[true, false]);
        let b = BitVec::from_bools(&[false, true, true]);
        assert_eq!(a.concat(&b).to_bools(), [true, false, false, true, true]);
    }

    #[test]
    fn iter_ones_ascending() {
        let v = BitVec::from_bools(&[false, true, false, true, true]);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![1, 3, 4]);
    }

    #[test]
    fn debug_and_display() {
        let v = BitVec::from_bools(&[true, false, true]);
        assert_eq!(format!("{v:?}"), "BitVec[101]");
        assert_eq!(format!("{v}"), "101");
        assert_eq!(format!("{:?}", BitVec::zeros(0)), "BitVec[]");
    }

    #[test]
    fn from_iterator_collects() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.to_bools(), [true, false, true]);
    }
}
