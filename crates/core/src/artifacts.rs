//! Compiled model artifacts: the vectorizable structures of paper §4.2.
//!
//! The compiler lowers a forest to four kinds of data, all designed for
//! packed evaluation:
//!
//! * the **padded threshold vector** (bit-sliced, feature-grouped,
//!   sentinel-padded to quantized width `q`);
//! * the **reshuffling matrix** `R` (b×q), sorting comparison results
//!   into branch preorder and dropping sentinel slots;
//! * one **level matrix** (leaves×b) per level, selecting for every
//!   label the branch above it at that level;
//! * one **level mask** per level, flagging which labels hang off the
//!   false side of their selected branch.
//!
//! Matrices are stored as **generalised diagonals** (paper §4.1.2) so
//! the Halevi–Shoup kernel can multiply them against packed vectors at
//! multiplicative depth 1.

use copse_fhe::{BitSliced, BitVec};
use serde::{Deserialize, Serialize};

/// A dense boolean matrix with row-major storage and generalised
/// diagonal extraction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoolMatrix {
    rows: usize,
    cols: usize,
    data: Vec<BitVec>, // one BitVec of width `cols` per row
}

impl BoolMatrix {
    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: (0..rows).map(|_| BitVec::zeros(cols)).collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads entry `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.data[r].get(c)
    }

    /// Sets entry `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        self.data[r].set(c, value);
    }

    /// Row `r` as packed bits.
    pub fn row(&self, r: usize) -> &BitVec {
        &self.data[r]
    }

    /// Total number of 1 entries.
    pub fn count_ones(&self) -> usize {
        self.data.iter().map(BitVec::count_ones).sum()
    }

    /// The `i`-th generalised diagonal (paper §4.1.2): the length-`rows`
    /// vector `d_i[r] = M[r][(r + i) mod cols]`. An `m x n` matrix has
    /// exactly `n` generalised diagonals.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.cols()`.
    pub fn diagonal(&self, i: usize) -> BitVec {
        assert!(
            i < self.cols,
            "diagonal {i} out of range for {} cols",
            self.cols
        );
        BitVec::from_fn(self.rows, |r| self.get(r, (r + i) % self.cols))
    }

    /// All generalised diagonals, in offset order.
    pub fn diagonals(&self) -> Vec<BitVec> {
        (0..self.cols).map(|i| self.diagonal(i)).collect()
    }

    /// Plain boolean matrix-vector product (the evaluation oracle the
    /// secure kernel is tested against). Operates over GF(2): entries
    /// that collide XOR together — though the COPSE matrices never
    /// place two ones in a row, making OR and XOR agree.
    ///
    /// # Panics
    ///
    /// Panics if `v.width() != self.cols()`.
    pub fn mat_vec(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.width(), self.cols, "vector width != matrix cols");
        BitVec::from_fn(self.rows, |r| {
            let mut acc = false;
            for c in v.iter_ones() {
                acc ^= self.get(r, c);
            }
            acc
        })
    }

    /// Boolean matrix product `self * other` over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn mat_mul(&self, other: &BoolMatrix) -> BoolMatrix {
        assert_eq!(self.cols, other.rows, "inner dimensions differ");
        let mut out = BoolMatrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in self.data[r].iter_ones() {
                out.data[r] = out.data[r].xor(other.row(k));
            }
        }
        out
    }
}

/// Metadata describing a compiled model's shape: every paper parameter
/// in one place.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelMeta {
    /// Feature-space size.
    pub feature_count: usize,
    /// Fixed-point precision `p`.
    pub precision: u32,
    /// Branch count `b`.
    pub branches: usize,
    /// Quantized branching `q` (after any extra multiplicity padding).
    pub quantized: usize,
    /// Maximum level `d`.
    pub max_level: u32,
    /// Effective maximum multiplicity `K` revealed to the data owner.
    pub max_multiplicity: usize,
    /// Number of trees `N`.
    pub n_trees: usize,
    /// Total leaves (the width of the classification bitvector).
    pub n_leaves: usize,
    /// Label alphabet.
    pub label_names: Vec<String>,
}

impl ModelMeta {
    /// Slots one query's operands span: the widest vector any pipeline
    /// stage touches (query planes and decisions, branch vector,
    /// matrix rows and columns, masks, the result). The compiler
    /// builds every artifact from these dimensions — `q`-wide threshold
    /// planes, a `b × q` reshuffle matrix (absent when `fused`),
    /// `leaves`-row level matrices of `b` (or, fused, `q`) columns,
    /// `leaves`-wide masks — so the width needs no artifact, only the
    /// shape both parties hold. The single definition behind the
    /// analyzer's sequential `min_slot_capacity` and the runtime's
    /// packed block stride, so admission and evaluation agree on what
    /// fits.
    pub(crate) fn slot_width(&self, fused: bool) -> usize {
        let branches = if fused { 0 } else { self.branches };
        self.quantized.max(self.n_leaves).max(branches)
    }
}

/// A fully compiled model: the output of the COPSE compiler, ready to
/// be encoded/encrypted and shipped to the evaluator.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompiledModel {
    /// Shape metadata.
    pub meta: ModelMeta,
    /// Padded threshold vector in transposed bit-sliced form
    /// (`p` planes of width `q`).
    pub thresholds: BitSliced,
    /// Reshuffling matrix `R` (b×q). Present even when level matrices
    /// are fused, for inspection.
    pub reshuffle: BoolMatrix,
    /// Level matrices, index 0 = level 1 (leaves×b, or leaves×q when
    /// fused with `R`).
    pub levels: Vec<BoolMatrix>,
    /// Level masks, index 0 = level 1 (width = leaves).
    pub masks: Vec<BitVec>,
    /// Codebook: label index output by each leaf slot (paper §7.2.2).
    pub codebook: Vec<usize>,
    /// Whether `levels` already incorporate `R`, as
    /// [`CompileOptions::fuse_reshuffle`](crate::compiler::CompileOptions)
    /// decided: the served default fuses wherever that adds no
    /// generalised diagonal; the paper's pipeline keeps `R` separate.
    pub fused: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> BoolMatrix {
        // 2x3 matrix [[1,0,1],[0,1,0]]
        let mut m = BoolMatrix::zeros(2, 3);
        m.set(0, 0, true);
        m.set(0, 2, true);
        m.set(1, 1, true);
        m
    }

    #[test]
    fn diagonal_formula() {
        let m = example();
        // d_0[r] = M[r][r]: [1, 1]; d_1[r] = M[r][r+1 mod 3]: [0, 0];
        // d_2[r] = M[r][r+2 mod 3]: [1, 0].
        assert_eq!(m.diagonal(0).to_bools(), [true, true]);
        assert_eq!(m.diagonal(1).to_bools(), [false, false]);
        assert_eq!(m.diagonal(2).to_bools(), [true, false]);
        assert_eq!(m.diagonals().len(), 3);
    }

    #[test]
    fn mat_vec_small() {
        let m = example();
        let v = BitVec::from_bools(&[true, true, false]);
        assert_eq!(m.mat_vec(&v).to_bools(), [true, true]);
        let v = BitVec::from_bools(&[false, false, true]);
        assert_eq!(m.mat_vec(&v).to_bools(), [true, false]);
    }

    #[test]
    fn diagonals_reconstruct_matrix() {
        // M[r][c] can be read back from diagonal (c - r) mod n.
        let mut m = BoolMatrix::zeros(4, 6);
        for (r, c) in [(0, 5), (1, 1), (2, 3), (3, 0), (0, 0)] {
            m.set(r, c, true);
        }
        for r in 0..4 {
            for c in 0..6 {
                let i = (c + 6 - (r % 6)) % 6;
                assert_eq!(m.diagonal(i).get(r), m.get(r, c), "({r},{c})");
            }
        }
    }

    #[test]
    fn tall_matrix_diagonals_wrap_columns() {
        // 5x2: diagonals have length 5 and wrap columns twice.
        let mut m = BoolMatrix::zeros(5, 2);
        m.set(3, 1, true);
        // (3 + i) mod 2 == 1 -> i == 0 for odd rows... row 3: c=1 ->
        // i = (1 - 3) mod 2 = 0.
        assert!(m.diagonal(0).get(3));
        assert!(!m.diagonal(1).get(3));
    }

    #[test]
    fn mat_mul_matches_manual() {
        // R: 2x3 picks columns; L: 3x2.
        let mut l = BoolMatrix::zeros(3, 2);
        l.set(0, 0, true);
        l.set(1, 1, true);
        l.set(2, 0, true);
        let r = example(); // 2x3
        let lr = l.mat_mul(&r); // 3x3
                                // Row 0 of L selects row 0 of R = [1,0,1].
        assert_eq!(lr.row(0).to_bools(), [true, false, true]);
        assert_eq!(lr.row(1).to_bools(), [false, true, false]);
        assert_eq!(lr.row(2).to_bools(), [true, false, true]);
    }

    #[test]
    fn mat_mul_then_vec_equals_vec_then_vec() {
        let mut l = BoolMatrix::zeros(3, 2);
        l.set(0, 1, true);
        l.set(2, 0, true);
        let r = example();
        let v = BitVec::from_bools(&[true, false, true]);
        assert_eq!(l.mat_mul(&r).mat_vec(&v), l.mat_vec(&r.mat_vec(&v)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn diagonal_bounds_checked() {
        let _ = example().diagonal(3);
    }

    #[test]
    fn count_ones_counts() {
        assert_eq!(example().count_ones(), 3);
        assert_eq!(BoolMatrix::zeros(4, 4).count_ones(), 0);
    }
}
