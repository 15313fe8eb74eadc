//! Packed matrix-vector multiplication (Halevi–Shoup, paper §4.1.2).
//!
//! Matrices live in generalised-diagonal form: the product of an
//! `m × n` matrix with a packed width-`n` vector is
//!
//! ```text
//! M·v = Σ_{i=0}^{n-1}  d_i ⊙ adjust(rot(v, i))
//! ```
//!
//! where `d_i` is the `i`-th generalised diagonal, `rot` rotates slots
//! left, and `adjust` reconciles widths when `m ≠ n` (cyclic extension
//! for `m > n`, truncation for `m < n`). Every term is one rotation and
//! one (possibly plaintext) multiplication, so the whole product has
//! **constant multiplicative depth 1** regardless of matrix size — the
//! property that keeps COPSE's circuit shallow.
//!
//! The rotations depend only on `v`, and they are where the time goes
//! (each is key switches; a plaintext multiply is a handful of
//! transforms). [`mat_vec_many`] therefore walks the diagonals
//! **rotation-major**: it builds `adjust(rot(v, i))` once and
//! multiply-accumulates it into every matrix of a same-shaped group —
//! COPSE's `d` level matrices all multiply the same branch vector.
//! A rotation is deterministic, so sharing it leaves every output bit
//! for bit what a product of its own would have been; [`mat_vec`] is
//! the one-matrix case of the same loop, and the packed-batch layout
//! ([`EncodedMatrix::pack`]) is the same loop over block rotations.

use crate::artifacts::BoolMatrix;
use crate::parallel::{map_chunks, Parallelism};
use copse_fhe::{FheBackend, MaybeEncrypted};
use std::cmp::Ordering;

/// Where a matrix's diagonals sit in the slot vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layout {
    /// One query per ciphertext: operands span slots `0..width`.
    Whole,
    /// The packed-batch layout: `count` queries per ciphertext, query
    /// `j` in the block of slots starting at `j * stride`.
    Blocks { stride: usize, count: usize },
}

impl Layout {
    /// Slots a ciphertext holding `width`-slot operands spans.
    fn span(self, width: usize) -> usize {
        match self {
            Layout::Whole => width,
            Layout::Blocks { stride, count } => stride * count,
        }
    }
}

/// A matrix deployed for packed evaluation: generalised diagonals,
/// each either plaintext or encrypted.
#[derive(Debug)]
pub struct EncodedMatrix<B: FheBackend> {
    diagonals: Vec<MaybeEncrypted<B>>,
    /// Plaintext sparsity hints: `true` for diagonals known to be
    /// all-zero. Only populated for plaintext deployments; encrypted
    /// diagonals are never skipped (their contents are hidden).
    zero_diagonals: Vec<bool>,
    rows: usize,
    cols: usize,
    layout: Layout,
}

impl<B: FheBackend> Clone for EncodedMatrix<B> {
    fn clone(&self) -> Self {
        Self {
            diagonals: self.diagonals.clone(),
            zero_diagonals: self.zero_diagonals.clone(),
            rows: self.rows,
            cols: self.cols,
            layout: self.layout,
        }
    }
}

impl<B: FheBackend> EncodedMatrix<B> {
    /// Encodes a boolean matrix as plaintext diagonals (Maurice =
    /// Sally configurations). Precomputes backend acceleration state
    /// for every diagonal, so deployment — not the first query — pays
    /// any one-time transform cost.
    pub fn encode_plain(backend: &B, matrix: &BoolMatrix) -> Self {
        let diags = matrix.diagonals();
        let encode = |d| MaybeEncrypted::Plain(backend.encode(d));
        let mut encoded = Self::from_diagonals(diags.iter().map(encode).collect(), matrix.rows());
        encoded.zero_diagonals = diags.iter().map(|d| d.is_zero()).collect();
        encoded.precompute(backend);
        encoded
    }

    /// Warms backend-side caches for the plaintext diagonals (the BGV
    /// backend forward-NTTs each fixed diagonal exactly once here;
    /// every query and batch thereafter multiplies pointwise against
    /// the cached transform). Encrypted diagonals have no plaintext
    /// cache and are left untouched. Diagonals warm independently, so
    /// when the backend is configured for kernel parallelism the batch
    /// forks onto the shared worker pool — deployment pays the
    /// one-time transform cost across cores (the caches are
    /// write-once, so the warmed state is identical either way).
    pub fn precompute(&self, backend: &B) {
        let plain: Vec<&B::Plaintext> = self
            .diagonals
            .iter()
            .filter_map(|d| match d {
                MaybeEncrypted::Plain(pt) => Some(pt),
                MaybeEncrypted::Encrypted(_) => None,
            })
            .collect();
        let parallelism = Parallelism {
            threads: backend.kernel_threads(),
        };
        let _: Vec<()> = crate::parallel::map_indices(parallelism, plain.len(), |i| {
            backend.prepare_plaintext(plain[i])
        });
    }

    /// Encrypts a boolean matrix diagonal-by-diagonal (offloaded
    /// model; costs `cols` Encrypt operations, which is how the paper
    /// counts model encryption in Table 1d).
    pub fn encrypt(backend: &B, matrix: &BoolMatrix) -> Self {
        let diagonals = matrix.diagonals();
        let encrypt = |d| MaybeEncrypted::Encrypted(backend.encrypt_bits(d));
        Self::from_diagonals(diagonals.iter().map(encrypt).collect(), matrix.rows())
    }

    /// A `rows`-row matrix of the given diagonals (one per column),
    /// none of them known to be zero.
    pub(crate) fn from_diagonals(diagonals: Vec<MaybeEncrypted<B>>, rows: usize) -> Self {
        Self {
            zero_diagonals: vec![false; diagonals.len()],
            cols: diagonals.len(),
            diagonals,
            rows,
            layout: Layout::Whole,
        }
    }

    /// Tiles the matrix for the packed-batch layout: every diagonal
    /// repeats at block offsets `0, stride, 2*stride, …`, so one
    /// multiply applies the model to all `count` packed queries at
    /// once. Built once per deployed model (lazily, on the first
    /// packed batch); plaintext diagonals re-encode and pre-warm their
    /// tiled form, encrypted diagonals pay the pack-of-clones
    /// rotations once here instead of once per chunk.
    pub fn pack(&self, backend: &B, stride: usize, count: usize) -> Self {
        Self {
            diagonals: self
                .diagonals
                .iter()
                .map(|d| tile_operand(backend, d, stride, count))
                .collect(),
            zero_diagonals: self.zero_diagonals.clone(),
            rows: self.rows,
            cols: self.cols,
            layout: Layout::Blocks { stride, count },
        }
    }

    /// Number of rows (per block, when packed).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (= number of diagonals).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if any diagonal is encrypted.
    pub fn is_encrypted(&self) -> bool {
        self.diagonals.iter().any(MaybeEncrypted::is_encrypted)
    }
}

/// Tiles one model operand (threshold plane, level mask, or diagonal)
/// into every block of the packed layout: plaintext operands re-encode
/// tiled (unmetered, pre-warmed), encrypted operands pack `count`
/// clones of themselves.
pub fn tile_operand<B: FheBackend>(
    backend: &B,
    operand: &MaybeEncrypted<B>,
    stride: usize,
    count: usize,
) -> MaybeEncrypted<B> {
    match operand {
        MaybeEncrypted::Plain(pt) => {
            let tiled = backend.encode_tiled(&backend.decode(pt), stride, count);
            backend.prepare_plaintext(&tiled);
            MaybeEncrypted::Plain(tiled)
        }
        MaybeEncrypted::Encrypted(ct) => {
            MaybeEncrypted::Encrypted(backend.tile_ciphertext(ct, stride, count))
        }
    }
}

/// Options for the MatMul kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatMulOptions {
    /// Skip plaintext diagonals that are all-zero. Sound only for
    /// plaintext models (the hint is never populated for encrypted
    /// ones); off by default to match the paper's operation counts.
    pub skip_zero_diagonals: bool,
    /// Pre-split seed for the all-skipped fallback's fresh zero
    /// encryption ([`FheBackend::encrypt_zeros_seeded`]). Callers that
    /// run `mat_vec` concurrently (the batched runtime) give every
    /// call site a distinct tag, which makes the fallback ciphertext
    /// a pure function of the tag — bitwise identical no matter how
    /// the calls interleave.
    pub zero_tag: u64,
}

/// Multiplies an encoded matrix by a packed ciphertext vector: the
/// one-matrix case of [`mat_vec_many`].
///
/// # Panics
///
/// Panics if `v`'s width differs from the matrix column count (for a
/// packed matrix: from the layout's `count * stride` slots).
pub fn mat_vec<B: FheBackend>(
    backend: &B,
    matrix: &EncodedMatrix<B>,
    v: &B::Ciphertext,
    options: MatMulOptions,
    parallelism: Parallelism,
) -> B::Ciphertext {
    mat_vec_many(backend, &[matrix], v, &[options], parallelism)
        .pop()
        .expect("one matrix in, one product out")
}

/// Multiplies every matrix of a same-shaped group by one packed
/// ciphertext vector, sharing the rotations: `adjust(rot(v, i))` is
/// built once per diagonal index and multiply-accumulated into one
/// running sum per matrix, so the group costs `cols - 1` rotations in
/// total (not per matrix) plus each matrix's own `cols` multiplies and
/// `cols - 1` additions. `options[l]` belongs to `matrices[l]`.
///
/// For a packed matrix ([`EncodedMatrix::pack`]) `v` holds one
/// width-`cols` operand per block and the result one width-`rows`
/// product per block, at exactly the op count of the unpacked product
/// regardless of how many queries are packed — the amortisation the
/// layout exists for.
///
/// Rotations stream: a worker holds the one it is multiplying plus its
/// accumulators, never all `cols` of them.
///
/// Determinism: diagonal chunks run on the shared worker pool and
/// their partial sums combine in chunk order, per matrix. The chunking
/// cannot show in the result — ciphertext addition is exact modular
/// arithmetic, and the BGV noise estimate sums integer magnitudes — so
/// every output is a pure function of the inputs, bitwise identical at
/// every pool degree and to a [`mat_vec`] of that matrix alone: a rotation
/// is a deterministic function of `v`, so which call computed it
/// cannot show. With `skip_zero_diagonals`, rotation `i` is computed
/// iff some matrix keeps diagonal `i`; a matrix with every diagonal
/// skipped yields a fresh zero encryption whose randomness comes from
/// its own pre-split [`MatMulOptions::zero_tag`] rather than the
/// backend's internal stream, so concurrent calls (e.g. a parallel
/// batch) cannot reorder the draws.
///
/// # Panics
///
/// Panics if the matrices differ in shape or layout, if `options` does
/// not hold one entry per matrix, or if `v`'s width differs from the
/// column count (packed: from the layout's `count * stride` slots).
pub fn mat_vec_many<B: FheBackend>(
    backend: &B,
    matrices: &[&EncodedMatrix<B>],
    v: &B::Ciphertext,
    options: &[MatMulOptions],
    parallelism: Parallelism,
) -> Vec<B::Ciphertext> {
    assert_eq!(
        matrices.len(),
        options.len(),
        "one MatMulOptions per matrix"
    );
    let Some(first) = matrices.first() else {
        return Vec::new();
    };
    let (m, n, layout) = (first.rows, first.cols, first.layout);
    assert!(
        matrices
            .iter()
            .all(|x| (x.rows, x.cols, x.layout) == (m, n, layout)),
        "matrices sharing rotations must share one shape and layout"
    );
    assert_eq!(
        backend.width(v),
        layout.span(n),
        "vector width {} != matrix cols {n} ({layout:?})",
        backend.width(v),
    );
    let _span = copse_trace::span("mat_vec");

    let keeps =
        |l: usize, i: usize| !(options[l].skip_zero_diagonals && matrices[l].zero_diagonals[i]);
    let adjusted = |i: usize| -> B::Ciphertext {
        let rotated = match (i, layout) {
            (0, _) => v.clone(),
            (_, Layout::Whole) => backend.rotate(v, i as isize),
            (_, Layout::Blocks { stride, .. }) => backend.rotate_blocks(v, i as isize, n, stride),
        };
        match (m.cmp(&n), layout) {
            (Ordering::Equal, _) => rotated,
            (Ordering::Greater, Layout::Whole) => backend.cyclic_extend(&rotated, m),
            (Ordering::Less, Layout::Whole) => backend.truncate(&rotated, m),
            (Ordering::Greater, Layout::Blocks { stride, .. }) => {
                backend.cyclic_extend_blocks(&rotated, n, m, stride)
            }
            (Ordering::Less, Layout::Blocks { stride, .. }) => {
                backend.truncate_blocks(&rotated, n, m, stride)
            }
        }
    };
    let fold = |acc: &mut Option<B::Ciphertext>, term: B::Ciphertext| {
        *acc = Some(match acc.take() {
            None => term,
            Some(sum) => backend.add(&sum, &term),
        });
    };

    // Each chunk of diagonals produces one partial sum per matrix;
    // chunks run on worker threads, partial sums combine on the caller.
    let partials = map_chunks(parallelism, n, |range| {
        let mut sums: Vec<Option<B::Ciphertext>> = matrices.iter().map(|_| None).collect();
        for i in range {
            if !(0..matrices.len()).any(|l| keeps(l, i)) {
                continue;
            }
            let operand = adjusted(i);
            for (l, sum) in sums.iter_mut().enumerate() {
                if keeps(l, i) {
                    fold(sum, matrices[l].diagonals[i].mul_into(backend, &operand));
                }
            }
        }
        sums
    });
    let mut sums: Vec<Option<B::Ciphertext>> = matrices.iter().map(|_| None).collect();
    for chunk in partials {
        for (sum, partial) in sums.iter_mut().zip(chunk) {
            if let Some(partial) = partial {
                fold(sum, partial);
            }
        }
    }
    // An all-zero (or fully skipped) matrix still yields a result,
    // deterministically (see MatMulOptions::zero_tag).
    sums.into_iter()
        .zip(options)
        .map(|(sum, o)| {
            sum.unwrap_or_else(|| backend.encrypt_zeros_seeded(layout.span(m), o.zero_tag))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use copse_fhe::{BgvBackend, BitVec, ClearBackend, ClearConfig, FheBackend, OpMeter};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, density: f64, rng: &mut SmallRng) -> BoolMatrix {
        let mut m = BoolMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(density) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    fn check_all_forms(m: &BoolMatrix, v: &BitVec, threads: usize) {
        let be = ClearBackend::with_defaults();
        let want = m.mat_vec(v);
        let ct = be.encrypt_bits(v);
        let par = Parallelism { threads };

        let plain = EncodedMatrix::encode_plain(&be, m);
        let got = mat_vec(&be, &plain, &ct, MatMulOptions::default(), par);
        assert_eq!(be.decrypt(&got), want, "plain {}x{}", m.rows(), m.cols());

        let skip = mat_vec(
            &be,
            &plain,
            &ct,
            MatMulOptions {
                skip_zero_diagonals: true,
                ..MatMulOptions::default()
            },
            par,
        );
        assert_eq!(
            be.decrypt(&skip),
            want,
            "skip-zero {}x{}",
            m.rows(),
            m.cols()
        );

        let enc = EncodedMatrix::encrypt(&be, m);
        let got = mat_vec(&be, &enc, &ct, MatMulOptions::default(), par);
        assert_eq!(
            be.decrypt(&got),
            want,
            "encrypted {}x{}",
            m.rows(),
            m.cols()
        );
    }

    #[test]
    fn square_matrices_match_oracle() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10 {
            let m = random_matrix(8, 8, 0.4, &mut rng);
            let v = BitVec::from_fn(8, |_| rng.gen_bool(0.5));
            check_all_forms(&m, &v, 1);
        }
    }

    #[test]
    fn tall_matrices_cyclically_extend() {
        // m > n: the rotated vector is cyclically extended (the [x,y,z]
        // -> [x,y,z,x,...] rule of §4.1.2).
        let mut rng = SmallRng::seed_from_u64(2);
        for (rows, cols) in [(7, 3), (12, 5), (9, 2), (10, 10)] {
            let m = random_matrix(rows, cols, 0.5, &mut rng);
            let v = BitVec::from_fn(cols, |_| rng.gen_bool(0.5));
            check_all_forms(&m, &v, 1);
        }
    }

    #[test]
    fn wide_matrices_truncate() {
        let mut rng = SmallRng::seed_from_u64(3);
        for (rows, cols) in [(3, 7), (5, 12), (1, 9)] {
            let m = random_matrix(rows, cols, 0.5, &mut rng);
            let v = BitVec::from_fn(cols, |_| rng.gen_bool(0.5));
            check_all_forms(&m, &v, 1);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = SmallRng::seed_from_u64(4);
        let m = random_matrix(33, 47, 0.3, &mut rng);
        let v = BitVec::from_fn(47, |_| rng.gen_bool(0.5));
        check_all_forms(&m, &v, 8);
    }

    #[test]
    fn every_pool_degree_matches_the_sequential_result() {
        // Bitwise parity across even, pool-wide, and lopsided chunk
        // counts (7 divides neither 18 nor 29 diagonals).
        let mut rng = SmallRng::seed_from_u64(7);
        for (rows, cols) in [(18, 18), (12, 29)] {
            let m = random_matrix(rows, cols, 0.4, &mut rng);
            let v = BitVec::from_fn(cols, |_| rng.gen_bool(0.5));
            for threads in [2usize, 4, 7] {
                check_all_forms(&m, &v, threads);
            }
        }
    }

    #[test]
    fn multiplicative_depth_is_one() {
        let mut rng = SmallRng::seed_from_u64(5);
        let be = ClearBackend::with_defaults();
        for (rows, cols) in [(4, 4), (9, 3), (3, 9), (40, 40)] {
            let m = random_matrix(rows, cols, 0.5, &mut rng);
            let v = BitVec::from_fn(cols, |_| rng.gen_bool(0.5));
            let ct = be.encrypt_bits(&v);
            let enc = EncodedMatrix::encrypt(&be, &m);
            let out = mat_vec(
                &be,
                &enc,
                &ct,
                MatMulOptions::default(),
                Parallelism::sequential(),
            );
            assert_eq!(be.depth(&out), 1, "{rows}x{cols}");
        }
    }

    #[test]
    fn op_counts_match_table1b_shape() {
        // For an n-column matrix: n-1 rotations (offset 0 is free), n
        // multiplies, n-1 additions (paper Table 1b counts b, b, b+1
        // with the mask add included).
        let be = ClearBackend::with_defaults();
        let mut rng = SmallRng::seed_from_u64(6);
        let n = 13;
        let m = random_matrix(n, n, 0.6, &mut rng);
        let v = BitVec::from_fn(n, |_| rng.gen_bool(0.5));
        let ct = be.encrypt_bits(&v);
        let enc = EncodedMatrix::encrypt(&be, &m);
        let before = be.meter().snapshot();
        let _ = mat_vec(
            &be,
            &enc,
            &ct,
            MatMulOptions::default(),
            Parallelism::sequential(),
        );
        let delta = be.meter().snapshot().since(&before);
        assert_eq!(delta.rotate, (n - 1) as u64);
        assert_eq!(delta.multiply, n as u64);
        assert_eq!(delta.add, (n - 1) as u64);
    }

    #[test]
    fn skip_zero_reduces_work_for_sparse_plain_models() {
        let be = ClearBackend::with_defaults();
        // Permutation-like matrix: one 1 per row -> at most n nonzero
        // diagonals out of 32.
        let mut m = BoolMatrix::zeros(8, 32);
        for r in 0..8 {
            m.set(r, r * 4, true);
        }
        let v = BitVec::from_fn(32, |i| i % 3 == 0);
        let ct = be.encrypt_bits(&v);
        let plain = EncodedMatrix::encode_plain(&be, &m);

        let before = be.meter().snapshot();
        let _ = mat_vec(
            &be,
            &plain,
            &ct,
            MatMulOptions::default(),
            Parallelism::sequential(),
        );
        let dense = be.meter().snapshot().since(&before);

        let before = be.meter().snapshot();
        let _ = mat_vec(
            &be,
            &plain,
            &ct,
            MatMulOptions {
                skip_zero_diagonals: true,
                ..MatMulOptions::default()
            },
            Parallelism::sequential(),
        );
        let sparse = be.meter().snapshot().since(&before);
        assert!(sparse.constant_multiply < dense.constant_multiply);
        assert!(sparse.constant_multiply <= 8);
    }

    #[test]
    fn all_zero_matrix_yields_zero_vector() {
        let be = ClearBackend::with_defaults();
        let m = BoolMatrix::zeros(5, 3);
        let v = BitVec::ones(3);
        let ct = be.encrypt_bits(&v);
        let plain = EncodedMatrix::encode_plain(&be, &m);
        let out = mat_vec(
            &be,
            &plain,
            &ct,
            MatMulOptions {
                skip_zero_diagonals: true,
                ..MatMulOptions::default()
            },
            Parallelism::sequential(),
        );
        assert_eq!(be.decrypt(&out), BitVec::zeros(5));
    }

    /// Packs `count` width-`n` vectors at `stride`, multiplies them all
    /// with one `mat_vec` over the tiled matrix, and unpacks each block
    /// back out.
    fn packed_products<B: FheBackend>(
        be: &B,
        matrix: &BoolMatrix,
        vs: &[BitVec],
        stride: usize,
        threads: usize,
    ) -> Vec<BitVec> {
        let count = vs.len();
        let cts: Vec<_> = vs.iter().map(|v| be.encrypt_bits(v)).collect();
        let packed_v = be.pack_blocks(&cts, stride, count * stride);
        let plain = EncodedMatrix::encode_plain(be, matrix);
        let tiled = plain.pack(be, stride, count);
        let out = mat_vec(
            be,
            &tiled,
            &packed_v,
            MatMulOptions::default(),
            Parallelism { threads },
        );
        (0..count)
            .map(|j| be.decrypt(&be.unpack_block(&out, j, stride, matrix.rows())))
            .collect()
    }

    #[test]
    fn packed_mat_vec_matches_per_query_products() {
        let be = ClearBackend::with_defaults();
        let mut rng = SmallRng::seed_from_u64(7);
        // Square, extending (rows > cols), and truncating (rows < cols)
        // shapes all share the block kernels with the sequential path.
        for (rows, cols) in [(4, 4), (7, 4), (3, 5)] {
            let m = random_matrix(rows, cols, 0.5, &mut rng);
            let stride = rows.max(cols);
            for threads in [1, 3] {
                let vs: Vec<BitVec> = (0..3)
                    .map(|_| BitVec::from_fn(cols, |_| rng.gen_bool(0.5)))
                    .collect();
                let got = packed_products(&be, &m, &vs, stride, threads);
                for (j, v) in vs.iter().enumerate() {
                    assert_eq!(
                        got[j],
                        m.mat_vec(v),
                        "{rows}x{cols} block {j} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_mat_vec_costs_one_sequential_product() {
        // The amortisation claim, mechanically: the packed product over
        // any number of blocks spends exactly the ops of ONE sequential
        // product (block rotation = 1 automorphism, tiled diagonals are
        // plaintext re-encodes).
        let be = ClearBackend::with_defaults();
        let mut rng = SmallRng::seed_from_u64(8);
        for (rows, cols) in [(5, 5), (6, 4), (3, 5)] {
            let m = random_matrix(rows, cols, 0.5, &mut rng);
            let stride = rows.max(cols);
            let v = BitVec::from_fn(cols, |_| rng.gen_bool(0.5));
            let plain = EncodedMatrix::encode_plain(&be, &m);
            let tiled = plain.pack(&be, stride, 4);
            let cts: Vec<_> = (0..4).map(|_| be.encrypt_bits(&v)).collect();
            let packed_v = be.pack_blocks(&cts, stride, 4 * stride);
            let ct = be.encrypt_bits(&v);

            let before = be.meter().snapshot();
            let _ = mat_vec(
                &be,
                &plain,
                &ct,
                MatMulOptions::default(),
                Parallelism::sequential(),
            );
            let seq = be.meter().snapshot().since(&before);

            let before = be.meter().snapshot();
            let _ = mat_vec(
                &be,
                &tiled,
                &packed_v,
                MatMulOptions::default(),
                Parallelism::sequential(),
            );
            let packed = be.meter().snapshot().since(&before);
            assert_eq!(
                packed, seq,
                "{rows}x{cols}: packed ops != one sequential product"
            );
        }
    }

    #[test]
    fn all_skipped_fallback_is_bitwise_deterministic_across_thread_counts() {
        // PR 4 caveat, closed: with every diagonal skipped the fallback
        // draws encryption randomness from the caller's pre-split
        // `zero_tag`, not the backend's shared stream — so concurrent
        // batches produce bitwise-identical ciphertexts no matter how
        // the scheduler interleaves them.
        let run = |threads: usize| -> Vec<Vec<u8>> {
            let be = BgvBackend::tiny();
            let m = BoolMatrix::zeros(4, 4);
            let plain = EncodedMatrix::encode_plain(&be, &m);
            let cts: Vec<_> = (0..8).map(|_| be.encrypt_bits(&BitVec::ones(4))).collect();
            crate::parallel::map_indices(Parallelism { threads }, 8, |qi| {
                let out = mat_vec(
                    &be,
                    &plain,
                    &cts[qi],
                    MatMulOptions {
                        skip_zero_diagonals: true,
                        zero_tag: qi as u64,
                    },
                    Parallelism::sequential(),
                );
                be.serialize_ciphertext(&out)
            })
        };
        let baseline = run(1);
        for threads in [2, 4, 7] {
            assert_eq!(
                run(threads),
                baseline,
                "nondeterministic at {threads} threads"
            );
        }
    }

    /// A same-shaped group exercising every kind of member: a random
    /// plaintext matrix, an all-zero plaintext one whose diagonals are
    /// all skipped (the seeded fallback), and an encrypted one.
    fn mixed_group<B: FheBackend>(
        be: &B,
        rows: usize,
        cols: usize,
        rng: &mut SmallRng,
    ) -> (Vec<EncodedMatrix<B>>, Vec<MatMulOptions>) {
        let group = vec![
            EncodedMatrix::encode_plain(be, &random_matrix(rows, cols, 0.5, rng)),
            EncodedMatrix::encode_plain(be, &BoolMatrix::zeros(rows, cols)),
            EncodedMatrix::encrypt(be, &random_matrix(rows, cols, 0.5, rng)),
        ];
        let options = (0..3u64)
            .map(|l| MatMulOptions {
                skip_zero_diagonals: l == 1,
                zero_tag: 0xC0FFEE + l,
            })
            .collect();
        (group, options)
    }

    /// The bitwise contract: at every pool degree, every member of a
    /// rotation-sharing group serialises to exactly the bytes of that
    /// matrix multiplied alone. (The comparison is per degree; the BGV
    /// noise estimate sums integer magnitudes, so degrees agree too.)
    fn assert_group_equals_singles<B: FheBackend>(
        be: &B,
        group: &[EncodedMatrix<B>],
        options: &[MatMulOptions],
        v: &B::Ciphertext,
        label: &str,
    ) {
        let refs: Vec<&EncodedMatrix<B>> = group.iter().collect();
        for threads in [1usize, 2, 7] {
            let par = Parallelism { threads };
            let together = mat_vec_many(be, &refs, v, options, par);
            assert_eq!(together.len(), group.len());
            for (l, shared) in together.iter().enumerate() {
                let alone = mat_vec_many(be, &[refs[l]], v, &[options[l]], par);
                assert_eq!(
                    be.serialize_ciphertext(shared),
                    be.serialize_ciphertext(&alone[0]),
                    "{label}, matrix {l} at {threads} threads"
                );
            }
        }
    }

    /// Runs [`assert_group_equals_singles`] over whole-vector shapes
    /// and over block shapes packed `count` to a ciphertext at `stride`.
    fn check_shared_rotations_are_bitwise_neutral<B: FheBackend>(
        be: &B,
        whole: &[(usize, usize)],
        blocks: &[(usize, usize)],
        stride: usize,
        count: usize,
    ) {
        let mut rng = SmallRng::seed_from_u64(15);
        for &(rows, cols) in whole {
            let (group, options) = mixed_group(be, rows, cols, &mut rng);
            let v = be.encrypt_bits(&BitVec::from_fn(cols, |_| rng.gen_bool(0.5)));
            assert_group_equals_singles(be, &group, &options, &v, &format!("whole {rows}x{cols}"));
        }
        for &(rows, cols) in blocks {
            let (group, options) = mixed_group(be, rows, cols, &mut rng);
            let tiled: Vec<_> = group.iter().map(|g| g.pack(be, stride, count)).collect();
            let lanes: Vec<_> = (0..count)
                .map(|_| be.encrypt_bits(&BitVec::from_fn(cols, |_| rng.gen_bool(0.5))))
                .collect();
            let v = be.pack_blocks(&lanes, stride, count * stride);
            assert_group_equals_singles(be, &tiled, &options, &v, &format!("blocks {rows}x{cols}"));
        }
    }

    #[test]
    fn shared_rotations_are_bitwise_neutral_on_the_clear_backend() {
        // Tall, wide and square; 5+ diagonals so pool degrees 2 and 7
        // really chunk (and 7 divides none of them evenly).
        let be = ClearBackend::new(ClearConfig {
            slot_capacity: Some(36),
            ..ClearConfig::default()
        });
        let shapes = [(12, 5), (5, 12), (9, 9)];
        check_shared_rotations_are_bitwise_neutral(&be, &shapes, &shapes, 12, 3);
    }

    #[test]
    fn shared_rotations_are_bitwise_neutral_on_real_bgv() {
        // 6 slots: whole-vector shapes up to 6 wide, blocks two to a
        // ciphertext at stride 3.
        let be = BgvBackend::tiny();
        check_shared_rotations_are_bitwise_neutral(
            &be,
            &[(6, 4), (3, 6), (5, 5)],
            &[(3, 2), (2, 3), (3, 3)],
            3,
            2,
        );
    }

    #[test]
    fn a_rotation_is_computed_iff_some_matrix_keeps_its_diagonal() {
        // Diagonal i of an r x c matrix holds entries (r, (r + i) % c).
        let be = ClearBackend::with_defaults();
        let with_diagonals = |kept: &[usize]| {
            let mut m = BoolMatrix::zeros(8, 8);
            for &i in kept {
                m.set(0, i, true);
            }
            EncodedMatrix::encode_plain(&be, &m)
        };
        let (a, b) = (with_diagonals(&[0, 2, 5]), with_diagonals(&[2, 3]));
        let v = be.encrypt_bits(&BitVec::ones(8));
        let skip = MatMulOptions {
            skip_zero_diagonals: true,
            ..MatMulOptions::default()
        };
        let (_, meter) = OpMeter::measure(|| {
            mat_vec_many(&be, &[&a, &b], &v, &[skip, skip], Parallelism::sequential())
        });
        let ops = meter.snapshot();
        // Union {0, 2, 3, 5}: index 0 is the unrotated vector.
        assert_eq!(ops.rotate, 3);
        assert_eq!(ops.constant_multiply, 3 + 2);
        assert_eq!(ops.add, 2 + 1);
        // A matrix that skips nothing forces all 7 rotations.
        let (_, meter) = OpMeter::measure(|| {
            mat_vec_many(
                &be,
                &[&a, &b],
                &v,
                &[skip, MatMulOptions::default()],
                Parallelism::sequential(),
            )
        });
        assert_eq!(meter.snapshot().rotate, 7);
        assert_eq!(meter.snapshot().constant_multiply, 3 + 8);
    }

    #[test]
    fn extra_matrices_cost_their_multiplies_and_no_key_switches() {
        // Real BGV, scoped transform counts: a group of three pays the
        // rotations (all the key switching) once, so over a single
        // matrix it adds exactly the transforms of the two extra
        // matrices' own plaintext multiplies — additions are free.
        let be = BgvBackend::tiny();
        let mut rng = SmallRng::seed_from_u64(16);
        let (rows, cols) = (6, 4);
        let group: Vec<_> = (0..3)
            .map(|_| EncodedMatrix::encode_plain(&be, &random_matrix(rows, cols, 0.5, &mut rng)))
            .collect();
        let refs: Vec<&EncodedMatrix<_>> = group.iter().collect();
        let v = be.encrypt_bits(&BitVec::from_fn(cols, |_| rng.gen_bool(0.5)));
        let options = [MatMulOptions::default(); 3];
        let seq = Parallelism::sequential();
        // Warm the rotation masks so both runs see the same caches.
        let _ = mat_vec_many(&be, &refs[..1], &v, &options[..1], seq);

        let (_, one) = OpMeter::measure(|| mat_vec_many(&be, &refs[..1], &v, &options[..1], seq));
        let (_, three) = OpMeter::measure(|| mat_vec_many(&be, &refs, &v, &options, seq));
        assert_eq!(one.snapshot().rotate, (cols - 1) as u64);
        assert_eq!(three.snapshot().rotate, (cols - 1) as u64);
        assert_eq!(three.snapshot().constant_multiply, (3 * cols) as u64);
        assert_eq!(three.snapshot().add, (3 * (cols - 1)) as u64);

        let operands: Vec<_> = (0..cols)
            .map(|i| be.cyclic_extend(&be.rotate(&v, i as isize), rows))
            .collect();
        let (_, multiplies) = OpMeter::measure(|| {
            for matrix in &group[1..] {
                for (diagonal, operand) in matrix.diagonals.iter().zip(&operands) {
                    let _ = diagonal.mul_into(&be, operand);
                }
            }
        });
        assert!(multiplies.transforms().total() > 0);
        assert_eq!(
            three.transforms().total() - one.transforms().total(),
            multiplies.transforms().total()
        );
        assert!(
            one.transforms().total() > 4 * multiplies.transforms().total(),
            "key switching dominates: {} vs {}",
            one.transforms(),
            multiplies.transforms()
        );
    }

    #[test]
    #[should_panic(expected = "share one shape")]
    fn mismatched_group_shapes_panic() {
        let be = ClearBackend::with_defaults();
        let a = EncodedMatrix::encode_plain(&be, &BoolMatrix::zeros(4, 4));
        let b = EncodedMatrix::encode_plain(&be, &BoolMatrix::zeros(5, 4));
        let ct = be.encrypt_bits(&BitVec::zeros(4));
        let _ = mat_vec_many(
            &be,
            &[&a, &b],
            &ct,
            &[MatMulOptions::default(); 2],
            Parallelism::sequential(),
        );
    }

    #[test]
    #[should_panic(expected = "vector width")]
    fn width_mismatch_panics() {
        let be = ClearBackend::with_defaults();
        let m = BoolMatrix::zeros(4, 4);
        let plain = EncodedMatrix::encode_plain(&be, &m);
        let ct = be.encrypt_bits(&BitVec::zeros(5));
        let _ = mat_vec(
            &be,
            &plain,
            &ct,
            MatMulOptions::default(),
            Parallelism::sequential(),
        );
    }
}
