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
//! **Ring form.** Every product runs on a ring of `N` slots, `rot_N`
//! rotating all of them left. With `P_r[j] = M[j][(j + r) mod N]` where
//! that column is below `n` (else 0),
//!
//! ```text
//! M·v = Σ_{r ∈ S}  P_r ⊙ rot_N(v, r),   S = {r : ∃ j < m, (j + r) mod N < n}
//! ```
//!
//! — one rotation per shift, no mask, no extension
//! ([`FheBackend::ring_mat_vec`], laid out at deploy by [`ring_shifts`]).
//! `S` depends on `(m, n, N)` alone, so the product is data-oblivious.
//! `N` is the backend's slot ring when the matrix fits it, else the
//! column count: a width-`n` ciphertext of a backend without a slot
//! bound rotates as a ring of `n` slots. At `N = n` the ring form *is*
//! the formula above (`P_r = d_r`, `S = 0..n`; row `j ≥ n` reads slot
//! `(j + r) mod n`, which is the cyclic extension, and rows `< n` drop
//! the truncated slots). Below full width it saves the masked
//! automorphism pairs a partial-width rotation costs. The packed-batch
//! layout ([`EncodedMatrix::pack`]) tiles the ring form: a tiled `P_r`
//! is the ring diagonal of the block-diagonal matrix of its copies (row
//! `a` of block `j` reads slot `j·stride + ((a + r) mod N)`, a column of
//! its own block), so packed products run the same kernel. Packing
//! needs a slot ring: `lanes ≥ 2` blocks of `stride ≥ n` slots give
//! `n < N`.
//!
//! The rotations depend only on `v`, and they are where the time goes
//! (each is key switches; a plaintext multiply is a handful of
//! transforms). [`mat_vec_many`] therefore walks the shifts
//! **rotation-major**: it builds `rot_N(v, r)` once and
//! multiply-accumulates it into every matrix of a same-shaped group —
//! COPSE's `d` level matrices all multiply the same branch vector.
//! A rotation is deterministic, so sharing it leaves every output bit
//! for bit what a product of its own would have been; [`mat_vec`] is
//! the one-matrix case of the same call.
//!
//! Every product meters the paper's width-`n` loop (one rotation per
//! nonzero diagonal index, a product per diagonal, an add per diagonal
//! after the first): the ring's extra shifts are internal plumbing,
//! like a partial-width rotation's masks.

use crate::artifacts::BoolMatrix;
use crate::parallel::Parallelism;
use crate::runtime::ModelForm;
use copse_fhe::{BitVec, FheBackend, FheOp, MaybeEncrypted, RingDiagonals};

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

/// The shifts `S` of an `rows × cols` product on a ring of `slots`
/// slots (see the module docs): `r` is in `S` iff some row `j < rows`
/// reads column `(j + r) mod slots < cols`, i.e. `r < cols` (row 0) or
/// the window `r..r + rows` wraps past the end of the ring.
pub fn ring_shifts(rows: usize, cols: usize, slots: usize) -> Vec<usize> {
    (0..slots)
        .filter(|&r| r < cols || r + rows > slots)
        .collect()
}

/// The ring a `rows × cols` matrix runs on: `backend`'s whole slot
/// ring when that holds both operands, else one of `cols` slots — the
/// ring a width-`cols` vector of a backend without a slot bound
/// rotates on (and, for shapes wider than a bounded ring, which only
/// the analyzer builds, the ring that would hold them). At `cols = N`
/// the ring diagonals are the generalised ones.
fn ring_of<B: FheBackend>(backend: &B, rows: usize, cols: usize) -> usize {
    backend
        .slot_capacity()
        .filter(|&slots| rows <= slots && cols <= slots)
        .unwrap_or(cols)
}

/// The ring a matrix's diagonals are laid out on.
#[derive(Clone, Debug)]
struct Ring {
    slots: usize,
    /// Plaintext sparsity hints per ring diagonal, like
    /// [`EncodedMatrix`]'s per generalised diagonal.
    zero: Vec<bool>,
}

/// A matrix deployed for packed evaluation: its ring diagonals `P_r`
/// (see the module docs), each either plaintext or encrypted.
#[derive(Debug)]
pub struct EncodedMatrix<B: FheBackend> {
    /// What products multiply by: `P_r` for each shift of
    /// [`ring_shifts`] on `ring`.
    diagonals: Vec<MaybeEncrypted<B>>,
    /// Plaintext sparsity hints: `true` for generalised diagonals known
    /// to be all-zero (the metered width-`n` loop skips by them). Only
    /// populated for plaintext deployments; encrypted diagonals are
    /// never skipped (their contents are hidden).
    zero_diagonals: Vec<bool>,
    /// The ring `diagonals` are laid out on.
    ring: Ring,
    rows: usize,
    cols: usize,
    layout: Layout,
}

impl<B: FheBackend> Clone for EncodedMatrix<B> {
    fn clone(&self) -> Self {
        Self {
            diagonals: self.diagonals.clone(),
            zero_diagonals: self.zero_diagonals.clone(),
            ring: self.ring.clone(),
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
        let encoded = Self::build(
            backend,
            matrix.rows(),
            matrix.cols(),
            Some(matrix),
            |bits| MaybeEncrypted::Plain(backend.encode(bits)),
        );
        encoded.precompute(backend);
        encoded
    }

    /// Warms backend-side caches for every plaintext diagonal (the BGV
    /// backend forward-NTTs each fixed diagonal exactly once here;
    /// every query and batch thereafter multiplies pointwise against
    /// the cached transform). Encrypted diagonals have no plaintext
    /// cache and are left untouched. Diagonals warm independently, so
    /// when the backend is configured for kernel parallelism the batch
    /// forks onto the shared worker pool — deployment pays the one-time
    /// transform cost across cores (the caches are write-once, so the
    /// warmed state is identical either way).
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
    /// model): one Encrypt per shift of [`ring_shifts`] (Maurice owns
    /// the matrix, so he lays it out) — `cols` on a ring of `cols`
    /// slots, which is how the paper counts model encryption in Table
    /// 1d.
    pub fn encrypt(backend: &B, matrix: &BoolMatrix) -> Self {
        Self::build(
            backend,
            matrix.rows(),
            matrix.cols(),
            Some(matrix),
            |bits| MaybeEncrypted::Encrypted(backend.encrypt_bits(bits)),
        )
    }

    /// A `rows × cols` matrix of `form` whose entries nobody knows —
    /// the analyzer's stand-in for Maurice's artifacts, built by the
    /// same shape rule as his, with no diagonal known to be zero.
    pub(crate) fn of_shape(backend: &B, form: ModelForm, rows: usize, cols: usize) -> Self {
        Self::build(backend, rows, cols, None, |bits| {
            form.operand(backend, backend.encode(bits))
        })
    }

    /// The one constructor: the diagonals of a `rows × cols` matrix on
    /// the ring [`ring_of`] gives, each `operand` of its bits. The
    /// all-zero diagonals of a known plaintext `matrix` are recorded as
    /// skippable; an unknown one has all-zero bits and no such hint.
    fn build(
        backend: &B,
        rows: usize,
        cols: usize,
        matrix: Option<&BoolMatrix>,
        operand: impl Fn(&BitVec) -> MaybeEncrypted<B>,
    ) -> Self {
        // Diagonal `r` on a ring of `slots ≥ cols` slots: row `j` holds
        // `M[j][(j + r) mod slots]`, or 0 past the last column. On a
        // ring of `cols` slots this is the generalised diagonal `d_r`.
        let bits = |slots: usize, r: usize| match matrix {
            Some(m) => BitVec::from_fn(rows, |j| {
                let col = (j + r) % slots;
                col < cols && m.get(j, col)
            }),
            None => BitVec::zeros(rows),
        };
        let slots = ring_of(backend, rows, cols);
        let shifts = ring_shifts(rows, cols, slots);
        let ring_bits: Vec<BitVec> = shifts.iter().map(|&r| bits(slots, r)).collect();
        let diagonals: Vec<_> = ring_bits.iter().map(&operand).collect();
        let known = matrix.is_some() && !diagonals.iter().any(MaybeEncrypted::is_encrypted);
        let zero: Vec<bool> = ring_bits.iter().map(|b| known && b.is_zero()).collect();
        let zero_diagonals = match slots == cols {
            true => zero.clone(),
            false => (0..cols)
                .map(|i| known && bits(cols, i).is_zero())
                .collect(),
        };
        Self {
            zero_diagonals,
            ring: Ring { slots, zero },
            diagonals,
            rows,
            cols,
            layout: Layout::Whole,
        }
    }

    /// Tiles the matrix for the packed-batch layout: every ring
    /// diagonal repeats at block offsets `0, stride, 2*stride, …`, so
    /// one multiply applies the model to all `count` packed queries at
    /// once (see the module docs). Built once per deployed model
    /// (lazily, on the first packed batch); plaintext diagonals
    /// re-encode and pre-warm their tiled form, encrypted diagonals
    /// pay the pack-of-clones rotations once here instead of once per
    /// chunk.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not laid out on the backend's slot ring:
    /// the backend reports none, or none that holds the matrix (a
    /// packed chunk always has one).
    pub fn pack(&self, backend: &B, stride: usize, count: usize) -> Self {
        assert!(
            backend.slot_capacity() == Some(self.ring.slots),
            "cannot pack a {}x{} matrix: the backend reports no slot ring for it",
            self.rows,
            self.cols
        );
        Self {
            diagonals: self
                .diagonals
                .iter()
                .map(|d| tile_operand(backend, d, stride, count))
                .collect(),
            zero_diagonals: self.zero_diagonals.clone(),
            ring: self.ring.clone(),
            rows: self.rows,
            cols: self.cols,
            layout: Layout::Blocks { stride, count },
        }
    }

    /// Number of rows (per block, when packed).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
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
/// ciphertext vector on the matrices' ring
/// ([`FheBackend::ring_mat_vec`]), sharing the rotations: `rot_N(v, r)`
/// is built once per shift and multiply-accumulated into one running
/// sum per matrix. Every call meters the paper's width-`n` loop: the
/// group costs `cols - 1` rotations in total (not per matrix) plus each
/// matrix's own `cols` multiplies and `cols - 1` additions.
/// `options[l]` belongs to `matrices[l]`.
///
/// For packed matrices ([`EncodedMatrix::pack`]) `v` holds one
/// width-`cols` operand per block and the result one width-`rows`
/// product per block, at exactly the op count of the unpacked product
/// regardless of how many queries are packed — the amortisation the
/// layout exists for.
///
/// Rotations stream: a worker holds the one it is multiplying plus its
/// accumulators, never all of them.
///
/// Determinism: shift chunks run on the shared worker pool and their
/// partial sums combine in chunk order, per matrix. The chunking
/// cannot show in the result — ciphertext addition is exact modular
/// arithmetic, and the BGV noise estimate sums integer magnitudes — so
/// every output is a pure function of the inputs, bitwise identical at
/// every pool degree and to a [`mat_vec`] of that matrix alone: a rotation
/// is a deterministic function of `v`, so which call computed it
/// cannot show. With `skip_zero_diagonals`, shift `r` is rotated iff
/// some matrix keeps `P_r`; a matrix with every diagonal
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
    let (m, n, layout, slots) = (first.rows, first.cols, first.layout, first.ring.slots);
    assert!(
        matrices
            .iter()
            .all(|x| (x.rows, x.cols, x.layout, x.ring.slots) == (m, n, layout, slots)),
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
    record_width_n_ops(backend, matrices, n, keeps);
    let diagonals: Vec<RingDiagonals<'_, B>> = matrices
        .iter()
        .zip(options)
        .map(|(x, o)| {
            let kept = |(d, &zero)| (!(o.skip_zero_diagonals && zero)).then_some(d);
            x.diagonals.iter().zip(&x.ring.zero).map(kept).collect()
        })
        .collect();
    let shifts = ring_shifts(m, n, slots);
    let sums = backend.ring_mat_vec(v, &shifts, &diagonals, layout.span(m), parallelism.threads);
    // An all-zero (or fully skipped) matrix still yields a result,
    // deterministically (see MatMulOptions::zero_tag).
    sums.into_iter()
        .zip(options)
        .map(|(sum, o)| {
            sum.unwrap_or_else(|| backend.encrypt_zeros_seeded(layout.span(m), o.zero_tag))
        })
        .collect()
}

/// Records on `backend`'s meter what the paper's width-`n` loop would:
/// one `Rotate` per nonzero diagonal index some matrix keeps, and per
/// matrix one product per kept diagonal and one `Add` per kept
/// diagonal after its first. The ring form realises the same product
/// with other rotations and products; the paper's counts, the analyzer
/// and every conformance battery read these.
fn record_width_n_ops<B: FheBackend>(
    backend: &B,
    matrices: &[&EncodedMatrix<B>],
    n: usize,
    keeps: impl Fn(usize, usize) -> bool,
) {
    let meter = backend.meter();
    for i in 1..n {
        if (0..matrices.len()).any(|l| keeps(l, i)) {
            meter.record(FheOp::Rotate);
        }
    }
    for (l, matrix) in matrices.iter().enumerate() {
        let product = match matrix.is_encrypted() {
            true => FheOp::Multiply,
            false => FheOp::ConstantMultiply,
        };
        for k in 0..(0..n).filter(|&i| keeps(l, i)).count() {
            meter.record(product);
            if k > 0 {
                meter.record(FheOp::Add);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copse_fhe::{BgvBackend, BgvParams, ClearBackend, ClearConfig, OpCounts, OpMeter};
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
        // -> [x,y,z,x,...] rule of §4.1.2): on a ring of n slots, row
        // j >= n reads slot (j + r) mod n.
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

    /// A clear backend whose slot ring holds exactly `lanes` blocks of
    /// `stride` slots, as a pack plan sizes it.
    fn lanes_backend(lanes: usize, stride: usize) -> ClearBackend {
        ClearBackend::new(ClearConfig {
            slot_capacity: Some(lanes * stride),
            ..ClearConfig::default()
        })
    }

    #[test]
    fn packed_mat_vec_matches_per_query_products() {
        let mut rng = SmallRng::seed_from_u64(7);
        // Square, extending (rows > cols), and truncating (rows < cols)
        // shapes, three lanes on a ring of three strides.
        for (rows, cols) in [(4, 4), (7, 4), (3, 5)] {
            let m = random_matrix(rows, cols, 0.5, &mut rng);
            let stride = rows.max(cols);
            let be = lanes_backend(3, stride);
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
        // product — the paper's width-n loop, as a backend without a
        // slot bound meters it (tiled diagonals are plaintext
        // re-encodes).
        let seq_be = ClearBackend::with_defaults();
        let mut rng = SmallRng::seed_from_u64(8);
        for (rows, cols) in [(5, 5), (6, 4), (3, 5)] {
            let m = random_matrix(rows, cols, 0.5, &mut rng);
            let stride = rows.max(cols);
            let be = lanes_backend(4, stride);
            let v = BitVec::from_fn(cols, |_| rng.gen_bool(0.5));
            let tiled = EncodedMatrix::encode_plain(&be, &m).pack(&be, stride, 4);
            let cts: Vec<_> = (0..4).map(|_| be.encrypt_bits(&v)).collect();
            let packed_v = be.pack_blocks(&cts, stride, 4 * stride);
            let plain = EncodedMatrix::encode_plain(&seq_be, &m);
            let ct = seq_be.encrypt_bits(&v);

            let before = seq_be.meter().snapshot();
            let _ = mat_vec(
                &seq_be,
                &plain,
                &ct,
                MatMulOptions::default(),
                Parallelism::sequential(),
            );
            let seq = seq_be.meter().snapshot().since(&before);

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
    #[should_panic(expected = "cannot pack a 4x3 matrix: the backend reports no slot ring")]
    fn packing_needs_a_slot_ring() {
        let be = ClearBackend::with_defaults();
        let plain = EncodedMatrix::encode_plain(&be, &BoolMatrix::zeros(4, 3));
        let _ = plain.pack(&be, 4, 2);
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
        // rotations (all the key switching) and their forward
        // transforms once, so over a single matrix it adds exactly the
        // inverse transforms of the two extra matrices' products —
        // products and additions accumulate pointwise, for free.
        // 6 x 4 on the 6-slot ring runs in ring form: 6 shifts each,
        // 5 of them automorphisms.
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
        // Warm any caches so both runs see the same state.
        let _ = mat_vec_many(&be, &refs[..1], &v, &options[..1], seq);

        let (_, one) = OpMeter::measure(|| mat_vec_many(&be, &refs[..1], &v, &options[..1], seq));
        let (_, three) = OpMeter::measure(|| mat_vec_many(&be, &refs, &v, &options, seq));
        assert_eq!(one.snapshot().rotate, (cols - 1) as u64);
        assert_eq!(three.snapshot().rotate, (cols - 1) as u64);
        assert_eq!(three.snapshot().constant_multiply, (3 * cols) as u64);
        assert_eq!(three.snapshot().add, (3 * (cols - 1)) as u64);

        // A warm plaintext product's transforms depend only on the
        // operand's level, and a rotation keeps the level: any fresh
        // operand of the result's width stands in for the rotated ones.
        // Its forward transforms are one ciphertext's, its inverse
        // transforms one result's.
        for matrix in &group {
            assert_eq!(matrix.ring.slots, 6, "6 x 4 fits the 6-slot ring");
            assert_eq!(matrix.diagonals.len(), 6);
        }
        let operand = be.encrypt_bits(&BitVec::zeros(rows));
        let (_, multiply) = OpMeter::measure(|| group[1].diagonals[0].mul_into(&be, &operand));
        let multiply = multiply.transforms();
        assert!(multiply.forward > 0 && multiply.inverse > 0);
        let extra = three.transforms().since(&one.transforms());
        assert_eq!((extra.forward, extra.inverse), (0, 2 * multiply.inverse));
        // What one matrix pays is the shared key switching, paid once
        // (one full-ring automorphism per nonzero shift, at the vector's
        // level), one forward transform of each of the 6 rotations, and
        // one inverse transform of its sum.
        let full = be.encrypt_bits(&BitVec::zeros(6));
        let (_, automorphism) = OpMeter::measure(|| be.rotate(&full, 1));
        let automorphism = automorphism.transforms();
        let one = one.transforms();
        assert_eq!(
            (one.forward, one.inverse),
            (
                5 * automorphism.forward + 6 * multiply.forward,
                5 * automorphism.inverse + multiply.inverse
            )
        );
    }

    #[test]
    fn ring_shifts_are_the_columns_some_row_reads() {
        for slots in 1..=9 {
            for rows in 1..=slots {
                for cols in 1..=slots {
                    let brute: Vec<usize> = (0..slots)
                        .filter(|&r| (0..rows).any(|j| (j + r) % slots < cols))
                        .collect();
                    assert_eq!(ring_shifts(rows, cols, slots), brute);
                    // Never more automorphisms than the width-n loop's
                    // rotations (two each below full width) and windows.
                    assert!(brute.len() < rows + cols);
                }
            }
        }
        assert_eq!(ring_shifts(17, 15, 18).len(), 18, "depth4's level matrices");
    }

    /// Deploys each of `matrices` in `form` on `be`, multiplies the
    /// group by `v` at `threads`, and returns each product's bits and
    /// depth with the ops the call metered.
    fn group_product(
        be: &ClearBackend,
        matrices: &[BoolMatrix],
        v: &BitVec,
        form: ModelForm,
        skip: bool,
        threads: usize,
    ) -> (Vec<(BitVec, u32)>, OpCounts) {
        let encoded: Vec<_> = matrices
            .iter()
            .map(|m| match form {
                ModelForm::Plain => EncodedMatrix::encode_plain(be, m),
                ModelForm::Encrypted => EncodedMatrix::encrypt(be, m),
            })
            .collect();
        let refs: Vec<&EncodedMatrix<_>> = encoded.iter().collect();
        let options: Vec<_> = (0..matrices.len() as u64)
            .map(|l| MatMulOptions {
                skip_zero_diagonals: skip,
                zero_tag: l,
            })
            .collect();
        let ct = be.encrypt_bits(v);
        let par = Parallelism { threads };
        let (out, meter) = OpMeter::measure(|| mat_vec_many(be, &refs, &ct, &options, par));
        let results = out.iter().map(|c| (be.decrypt(c), be.depth(c))).collect();
        (results, meter.snapshot())
    }

    #[test]
    fn the_ring_route_matches_the_oracle_and_meters_the_width_n_loop() {
        // Capped clear backends run on their N-slot ring whenever the
        // shape fits it; the uncapped one on a ring of cols slots, the
        // width-n loop itself. Same bits, same depth, same metered ops,
        // call by call.
        let mut rng = SmallRng::seed_from_u64(29);
        let uncapped = ClearBackend::with_defaults();
        let mut cases = 0;
        for slots in [6usize, 18] {
            let capped = ClearBackend::new(ClearConfig {
                slot_capacity: Some(slots),
                ..ClearConfig::default()
            });
            let mut shapes = vec![
                (slots, 1),
                (1, 1),
                (slots - 1, 2),
                (2, slots - 1),
                (slots, slots),
                (3, slots),
                (slots, slots - 1),
            ];
            shapes.extend((0..6).map(|_| (rng.gen_range(1..=slots), rng.gen_range(1..=slots))));
            for (rows, cols) in shapes {
                let size = rng.gen_range(1..=4);
                // Member 1 (when present) is all zero: with skipping
                // on, the seeded fallback.
                let matrices: Vec<_> = (0..size)
                    .map(|l| random_matrix(rows, cols, if l == 1 { 0.0 } else { 0.4 }, &mut rng))
                    .collect();
                let v = BitVec::from_fn(cols, |_| rng.gen_bool(0.5));
                let want: Vec<BitVec> = matrices.iter().map(|m| m.mat_vec(&v)).collect();
                for form in [ModelForm::Plain, ModelForm::Encrypted] {
                    let ring = EncodedMatrix::encode_plain(&capped, &matrices[0]).ring;
                    assert_eq!(ring.slots, slots, "{rows}x{cols} on {slots}");
                    for skip in [false, true] {
                        let label = format!("{rows}x{cols} on {slots} {form:?} skip={skip}");
                        let (loop_out, loop_ops) =
                            group_product(&uncapped, &matrices, &v, form, skip, 1);
                        for threads in [1, 2, 7] {
                            let (out, ops) =
                                group_product(&capped, &matrices, &v, form, skip, threads);
                            let bits: Vec<BitVec> = out.iter().map(|(b, _)| b.clone()).collect();
                            assert_eq!(bits, want, "{label} at {threads}: oracle");
                            assert_eq!(out, loop_out, "{label} at {threads}: width-n loop");
                            assert_eq!(ops, loop_ops, "{label} at {threads}: metered ops");
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 13 * 2 * 2 * 3);
    }

    #[test]
    fn the_ring_route_decrypts_on_real_bgv_bitwise_at_every_pool_degree() {
        // Shapes on the 6-slot tiny ring: a single column, tall, wide,
        // tall-by-one, and full width (where the two forms coincide and
        // the ring route still runs).
        let be = BgvBackend::tiny();
        let mut rng = SmallRng::seed_from_u64(30);
        for (rows, cols) in [(6, 1), (5, 3), (2, 5), (6, 5), (4, 6)] {
            let matrices = [
                random_matrix(rows, cols, 0.5, &mut rng),
                random_matrix(rows, cols, 0.5, &mut rng),
            ];
            let group = [
                EncodedMatrix::encode_plain(&be, &matrices[0]),
                EncodedMatrix::encrypt(&be, &matrices[1]),
            ];
            assert!(group.iter().all(|matrix| matrix.ring.slots == 6));
            let refs: Vec<&EncodedMatrix<_>> = group.iter().collect();
            let v = BitVec::from_fn(cols, |_| rng.gen_bool(0.5));
            let ct = be.encrypt_bits(&v);
            let options = [MatMulOptions::default(); 2];
            let run = |threads| mat_vec_many(&be, &refs, &ct, &options, Parallelism { threads });
            let baseline = run(1);
            for (out, matrix) in baseline.iter().zip(&matrices) {
                assert_eq!(be.decrypt(out), matrix.mat_vec(&v), "{rows}x{cols}");
            }
            let bytes = |outs: &[_]| -> Vec<Vec<u8>> {
                outs.iter().map(|c| be.serialize_ciphertext(c)).collect()
            };
            for threads in [2, 7] {
                assert_eq!(
                    bytes(&run(threads)),
                    bytes(&baseline),
                    "{rows}x{cols} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn a_tall_group_on_the_ring_pays_one_automorphism_per_shift_and_no_mask() {
        // depth4's level group: four 17 x 15 matrices on m = 127's 18
        // slots. The width-n loop paid 43 automorphisms and 43 mask
        // products (14 rotations of two masked automorphisms each, one
        // masked extension window per diagonal); the ring form pays 17
        // automorphisms, one forward transform of each of the 18
        // rotations (shift 0 included) and one inverse transform of
        // each of the 4 sums, nothing else: the 4 x 18 diagonal
        // products accumulate pointwise.
        let be = BgvBackend::new(BgvParams {
            chain_len: 2,
            ..BgvParams::demo()
        });
        assert_eq!(be.nslots(), 18);
        let mut rng = SmallRng::seed_from_u64(31);
        let group: Vec<_> = (0..4)
            .map(|_| EncodedMatrix::encode_plain(&be, &random_matrix(17, 15, 0.3, &mut rng)))
            .collect();
        let refs: Vec<&EncodedMatrix<_>> = group.iter().collect();
        let v = be.encrypt_bits(&BitVec::from_fn(15, |_| rng.gen_bool(0.5)));
        let options = [MatMulOptions::default(); 4];
        let seq = Parallelism::sequential();
        let (_, product) = OpMeter::measure(|| mat_vec_many(&be, &refs, &v, &options, seq));

        // One automorphism: a full-width rotation at the same level. One
        // warm plaintext product: a diagonal against a fresh operand.
        let full = be.encrypt_bits(&BitVec::zeros(18));
        let (_, automorphism) = OpMeter::measure(|| be.rotate(&full, 1));
        assert_eq!(group[0].ring.slots, 18, "17 x 15 fits the 18-slot ring");
        let operand = be.encrypt_bits(&BitVec::zeros(17));
        let (_, multiply) = OpMeter::measure(|| group[0].diagonals[0].mul_into(&be, &operand));
        let (automorphism, multiply) = (automorphism.transforms(), multiply.transforms());
        let product = (product.transforms(), product.snapshot());
        assert_eq!(
            (product.0.forward, product.0.inverse),
            (
                17 * automorphism.forward + 18 * multiply.forward,
                17 * automorphism.inverse + 4 * multiply.inverse
            )
        );
        // And it meters the paper's product: 14 rotations, 4 x 15
        // plaintext products, 4 x 14 additions.
        let ops = product.1;
        assert_eq!((ops.rotate, ops.constant_multiply, ops.add), (14, 60, 56));
    }

    #[test]
    fn packed_products_on_a_ring_match_per_query_products() {
        // Tiled ring diagonals: every row reads only its own block, so
        // the packed product runs on the ring, gives each block its own
        // product and meters the width-n loop's ops: those of one
        // unpacked product on a backend without a slot bound.
        let mut rng = SmallRng::seed_from_u64(32);
        let uncapped = ClearBackend::with_defaults();
        let capped = ClearBackend::new(ClearConfig {
            slot_capacity: Some(18),
            ..ClearConfig::default()
        });
        let seq = Parallelism::sequential();
        let metered = |be: &ClearBackend, m: &BoolMatrix, stride: usize, count: usize| {
            let tiled = EncodedMatrix::encode_plain(be, m).pack(be, stride, count);
            let v = be.encrypt_bits(&BitVec::zeros(count * stride));
            let (_, meter) =
                OpMeter::measure(|| mat_vec(be, &tiled, &v, MatMulOptions::default(), seq));
            (tiled.ring.slots, meter.snapshot())
        };
        let width_n = |m: &BoolMatrix| {
            let plain = EncodedMatrix::encode_plain(&uncapped, m);
            let v = uncapped.encrypt_bits(&BitVec::zeros(m.cols()));
            let (_, meter) =
                OpMeter::measure(|| mat_vec(&uncapped, &plain, &v, MatMulOptions::default(), seq));
            meter.snapshot()
        };
        // (rows, cols, stride, count): square, tall, wide, one row, one
        // column, on 18 slots.
        for (rows, cols, stride, count) in [
            (4, 4, 6, 3),
            (6, 4, 6, 3),
            (3, 5, 9, 2),
            (1, 6, 6, 2),
            (5, 1, 6, 3),
        ] {
            let m = random_matrix(rows, cols, 0.5, &mut rng);
            let vs: Vec<BitVec> = (0..count)
                .map(|_| BitVec::from_fn(cols, |_| rng.gen_bool(0.5)))
                .collect();
            let want: Vec<BitVec> = vs.iter().map(|v| m.mat_vec(v)).collect();
            for threads in [1, 2, 7] {
                let got = packed_products(&capped, &m, &vs, stride, threads);
                assert_eq!(got, want, "{rows}x{cols} at {threads} threads");
            }
            let (ring, ops) = metered(&capped, &m, stride, count);
            assert_eq!(ring, 18, "{rows}x{cols}: packed on the slot ring");
            assert_eq!(ops, width_n(&m), "{rows}x{cols}: metered ops");
        }
        // Real BGV: two blocks of stride 3 on the 6-slot ring.
        let bgv = BgvBackend::tiny();
        for (rows, cols) in [(3, 2), (2, 3), (3, 3), (3, 1)] {
            let m = random_matrix(rows, cols, 0.5, &mut rng);
            let vs: Vec<BitVec> = (0..2)
                .map(|_| BitVec::from_fn(cols, |_| rng.gen_bool(0.5)))
                .collect();
            let want: Vec<BitVec> = vs.iter().map(|v| m.mat_vec(v)).collect();
            assert_eq!(
                packed_products(&bgv, &m, &vs, 3, 2),
                want,
                "BGV {rows}x{cols}"
            );
        }
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
