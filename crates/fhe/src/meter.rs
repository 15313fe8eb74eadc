//! Instrumentation for homomorphic operation counting.
//!
//! The COPSE paper characterises circuit cost by the number of each kind
//! of primitive FHE operation (`Encrypt`, `Rotate`, `Add`, `Constant
//! Add`, `Multiply`; Table 1) plus the multiplicative depth. Every
//! backend in this crate routes each primitive through an [`OpMeter`], so
//! the complexity claims of the paper can be checked op-for-op against a
//! real execution (see `copse-core::complexity` and the Table 1/2
//! harness).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Largest transform size bucket tracked: `2^(SIZE_BUCKETS - 1)`.
const SIZE_BUCKETS: usize = 32;

/// One set of NTT transform counters: forward and inverse totals plus
/// a histogram by `log2(size)` (transform lengths are always powers of
/// two), forward + inverse combined. Every [`OpMeter`] carries one, and
/// [`PROCESS_TRANSFORMS`] is the process-wide instance.
#[derive(Debug)]
struct TransformCells {
    forward: AtomicU64,
    inverse: AtomicU64,
    by_log2: [AtomicU64; SIZE_BUCKETS],
}

/// Every transform executed by any [`crate::math::ntt::NttPlan`] in
/// this process.
static PROCESS_TRANSFORMS: TransformCells = TransformCells::new();

impl TransformCells {
    const fn new() -> Self {
        Self {
            forward: AtomicU64::new(0),
            inverse: AtomicU64::new(0),
            by_log2: [const { AtomicU64::new(0) }; SIZE_BUCKETS],
        }
    }

    #[inline]
    fn record(&self, direction: Direction, size: usize) {
        match direction {
            Direction::Forward => &self.forward,
            Direction::Inverse => &self.inverse,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.by_log2[size_bucket(size)].fetch_add(1, Ordering::Relaxed);
    }

    fn counts(&self) -> TransformCounts {
        TransformCounts {
            forward: self.forward.load(Ordering::Relaxed),
            inverse: self.inverse.load(Ordering::Relaxed),
        }
    }

    fn sizes(&self) -> TransformSizeCounts {
        let mut counts = [0u64; SIZE_BUCKETS];
        for (slot, cell) in counts.iter_mut().zip(&self.by_log2) {
            *slot = cell.load(Ordering::Relaxed);
        }
        TransformSizeCounts { counts }
    }

    fn reset(&self) {
        self.forward.store(0, Ordering::Relaxed);
        self.inverse.store(0, Ordering::Relaxed);
        for cell in &self.by_log2 {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for TransformCells {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Clone, Copy)]
enum Direction {
    Forward,
    Inverse,
}

/// A snapshot of low-level NTT transform counts.
///
/// Transforms are the dominant cost of every homomorphic operation on
/// the BGV backend, and the quantity the evaluation-domain
/// representation exists to save: a ciphertext kept in NTT form across
/// a key-switch digit loop pays one forward transform per digit row
/// instead of several per digit product. The ring context has no
/// handle to a backend meter, so transforms are recorded twice: into
/// the **scoped** [`OpMeter`] installed on the current task context
/// ([`OpMeter::install_scope`], read back with
/// [`OpMeter::transforms`]) — exact for the work that scope forked,
/// whatever else the process is doing — and into the process-wide
/// totals ([`transform_snapshot`]), which concurrent work pollutes.
/// Callers diff snapshots around the region of interest, exactly like
/// [`OpCounts::since`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransformCounts {
    /// Forward NTTs (coefficient to evaluation domain).
    pub forward: u64,
    /// Inverse NTTs (evaluation to coefficient domain).
    pub inverse: u64,
}

impl TransformCounts {
    /// Forward + inverse transforms combined.
    pub fn total(&self) -> u64 {
        self.forward + self.inverse
    }

    /// Component-wise difference `self - earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` exceeds `self` in either component.
    pub fn since(&self, earlier: &TransformCounts) -> TransformCounts {
        TransformCounts {
            forward: self
                .forward
                .checked_sub(earlier.forward)
                .expect("forward transform counter went backwards"),
            inverse: self
                .inverse
                .checked_sub(earlier.inverse)
                .expect("inverse transform counter went backwards"),
        }
    }
}

impl fmt::Display for TransformCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fwd={} inv={}", self.forward, self.inverse)
    }
}

/// Records one forward NTT of length `size` (called from the
/// transform hot path).
#[inline]
pub(crate) fn record_ntt_forward(size: usize) {
    record_transform(Direction::Forward, size);
}

/// Records one inverse NTT of length `size`.
#[inline]
pub(crate) fn record_ntt_inverse(size: usize) {
    record_transform(Direction::Inverse, size);
}

/// Counts one transform process-wide and, like [`OpMeter::record`],
/// mirrors it into the scoped meter of the current task context.
#[inline]
fn record_transform(direction: Direction, size: usize) {
    PROCESS_TRANSFORMS.record(direction, size);
    copse_pool::with_task_context(|ctx| {
        if let Some(scoped) = ctx.and_then(|c| c.downcast_ref::<OpMeter>()) {
            scoped.transforms.record(direction, size);
        }
    });
}

/// Installs an empty task context until the returned guard drops: ops
/// and transforms recorded meanwhile (on this thread and on pool tasks
/// forked from it) land in no scoped meter, only in the process-wide
/// counters. How set-up work that a pass happens to trigger, such as
/// building switching keys, stays out of that pass's counts.
pub(crate) fn unmetered() -> copse_pool::TaskContextGuard {
    copse_pool::set_task_context(Arc::new(()))
}

/// The histogram bucket for a transform of length `size` — shared by
/// the recording and query paths so they cannot diverge.
#[inline]
fn size_bucket(size: usize) -> usize {
    (size.max(1).trailing_zeros() as usize).min(SIZE_BUCKETS - 1)
}

/// Snapshot of the process-wide transform counters. Everything the
/// process runs lands here, so only a single-threaded caller can diff
/// it exactly; tests and evaluation passes read
/// [`OpMeter::transforms`] on an installed scope instead.
///
/// Kept for one caller: `benchmark/src/probes.rs` imports it, and
/// `benchmark/` is frozen (BENCHMARK.json `paths`). When that package
/// may be edited, move its probe to [`OpMeter::measure`] and delete
/// this function and `PROCESS_TRANSFORMS` with it.
pub fn transform_snapshot() -> TransformCounts {
    PROCESS_TRANSFORMS.counts()
}

/// A snapshot of transform counts **by transform length** (forward and
/// inverse combined), read off a scoped meter with
/// [`OpMeter::transform_sizes`].
///
/// This is the witness the ring-flavor tests use to prove *which* plan
/// ran: the prime-cyclotomic route transforms at `next_pow2(2m - 1)`
/// while the negacyclic power-of-two route transforms at exactly the
/// ring degree `n` — half the length or less. Counting alone cannot
/// distinguish them; counting per size can.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransformSizeCounts {
    /// `counts[k]` is the number of transforms of length `2^k`.
    counts: [u64; SIZE_BUCKETS],
}

impl TransformSizeCounts {
    /// Transforms of exactly length `size` (a power of two).
    pub fn at(&self, size: usize) -> u64 {
        self.counts[size_bucket(size)]
    }

    /// Transforms of any length.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `(size, count)` pairs with nonzero counts, ascending by
    /// size.
    pub fn nonzero(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(k, &c)| (1usize << k, c))
            .collect()
    }
}

/// The two kinds of key switch a leveled scheme runs: the one after a
/// slot automorphism, and the one that relinearises a ciphertext
/// product (or a sum of them) back to two parts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeySwitch {
    /// After a slot rotation's automorphism.
    Rotation,
    /// After a ciphertext product, or a sum of them.
    Relinearisation,
}

/// Key switches by kind, read off a scoped meter with
/// [`OpMeter::key_switches`]. A key switch is most of what a rotation
/// or a ciphertext product costs on BGV, and a semantic op count does
/// not show it: a sum of ciphertext products is several `Multiply`s
/// and one relinearisation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KeySwitchCounts {
    /// Key switches after a slot automorphism.
    pub rotation: u64,
    /// Relinearisations.
    pub relinearisation: u64,
}

/// Records one key switch of `kind` into the scoped meter of the
/// current task context, if one is installed. There is no process-wide
/// tally: a key switch is counted for the work that ran it or not at
/// all.
pub(crate) fn record_key_switch(kind: KeySwitch) {
    copse_pool::with_task_context(|ctx| {
        if let Some(scoped) = ctx.and_then(|c| c.downcast_ref::<OpMeter>()) {
            match kind {
                KeySwitch::Rotation => &scoped.key_switches[0],
                KeySwitch::Relinearisation => &scoped.key_switches[1],
            }
            .fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// The primitive homomorphic operations of the paper's cost vocabulary.
///
/// `ConstantMultiply` (ciphertext x plaintext) is tracked separately from
/// `Multiply` (ciphertext x ciphertext); the paper folds both into its
/// "Multiply" row, which [`OpCounts::multiplies_combined`] reproduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FheOp {
    /// Producing one ciphertext from a packed plaintext.
    Encrypt,
    /// Recovering a packed plaintext from a ciphertext.
    Decrypt,
    /// Rotating the slots of a ciphertext by a constant amount.
    Rotate,
    /// Slot-wise XOR of two ciphertexts.
    Add,
    /// Slot-wise XOR of a ciphertext with a plaintext.
    ConstantAdd,
    /// Slot-wise AND of two ciphertexts.
    Multiply,
    /// Slot-wise AND of a ciphertext with a plaintext.
    ConstantMultiply,
}

impl FheOp {
    /// All operation kinds, in display order.
    pub const ALL: [FheOp; 7] = [
        FheOp::Encrypt,
        FheOp::Decrypt,
        FheOp::Rotate,
        FheOp::Add,
        FheOp::ConstantAdd,
        FheOp::Multiply,
        FheOp::ConstantMultiply,
    ];
}

impl fmt::Display for FheOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FheOp::Encrypt => "Encrypt",
            FheOp::Decrypt => "Decrypt",
            FheOp::Rotate => "Rotate",
            FheOp::Add => "Add",
            FheOp::ConstantAdd => "Constant Add",
            FheOp::Multiply => "Multiply",
            FheOp::ConstantMultiply => "Constant Multiply",
        };
        f.write_str(name)
    }
}

/// A snapshot of operation counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounts {
    /// Ciphertexts produced from packed plaintexts.
    pub encrypt: u64,
    /// Plaintexts recovered from ciphertexts.
    pub decrypt: u64,
    /// Constant-amount slot rotations.
    pub rotate: u64,
    /// Ciphertext-ciphertext XORs.
    pub add: u64,
    /// Ciphertext-plaintext XORs.
    pub constant_add: u64,
    /// Ciphertext-ciphertext ANDs.
    pub multiply: u64,
    /// Ciphertext-plaintext ANDs.
    pub constant_multiply: u64,
}

impl OpCounts {
    /// Count for a single operation kind.
    pub fn get(&self, op: FheOp) -> u64 {
        match op {
            FheOp::Encrypt => self.encrypt,
            FheOp::Decrypt => self.decrypt,
            FheOp::Rotate => self.rotate,
            FheOp::Add => self.add,
            FheOp::ConstantAdd => self.constant_add,
            FheOp::Multiply => self.multiply,
            FheOp::ConstantMultiply => self.constant_multiply,
        }
    }

    /// Mutable count for a single operation kind.
    pub fn get_mut(&mut self, op: FheOp) -> &mut u64 {
        match op {
            FheOp::Encrypt => &mut self.encrypt,
            FheOp::Decrypt => &mut self.decrypt,
            FheOp::Rotate => &mut self.rotate,
            FheOp::Add => &mut self.add,
            FheOp::ConstantAdd => &mut self.constant_add,
            FheOp::Multiply => &mut self.multiply,
            FheOp::ConstantMultiply => &mut self.constant_multiply,
        }
    }

    /// Ciphertext + constant multiplies combined, as in the paper's
    /// "Multiply" rows.
    pub fn multiplies_combined(&self) -> u64 {
        self.multiply + self.constant_multiply
    }

    /// Total homomorphic operations (excluding decrypt).
    pub fn total_homomorphic(&self) -> u64 {
        self.encrypt
            + self.rotate
            + self.add
            + self.constant_add
            + self.multiply
            + self.constant_multiply
    }

    /// Component-wise difference `self - earlier`.
    ///
    /// # Panics
    ///
    /// Panics if any component of `earlier` exceeds that of `self`.
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        let mut out = OpCounts::default();
        for op in FheOp::ALL {
            *out.get_mut(op) = self
                .get(op)
                .checked_sub(earlier.get(op))
                .expect("op counter went backwards");
        }
        out
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &OpCounts) -> OpCounts {
        let mut out = *self;
        for op in FheOp::ALL {
            *out.get_mut(op) += other.get(op);
        }
        out
    }
}

impl fmt::Display for OpCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Encrypt={} Rotate={} Add={} ConstAdd={} Mult={} ConstMult={}",
            self.encrypt,
            self.rotate,
            self.add,
            self.constant_add,
            self.multiply,
            self.constant_multiply
        )
    }
}

/// Thread-safe operation counter shared by a backend and its observers.
#[derive(Debug, Default)]
pub struct OpMeter {
    encrypt: AtomicU64,
    decrypt: AtomicU64,
    rotate: AtomicU64,
    add: AtomicU64,
    constant_add: AtomicU64,
    multiply: AtomicU64,
    constant_multiply: AtomicU64,
    /// NTT transforms executed under this meter's installed scope.
    transforms: TransformCells,
    /// Key switches run under this meter's installed scope: rotation,
    /// relinearisation.
    key_switches: [AtomicU64; 2],
}

impl OpMeter {
    /// Creates a meter with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one occurrence of `op`.
    ///
    /// Besides this meter's own counters, the op is mirrored into the
    /// **scoped meter** installed on the current task context, if any
    /// (see [`OpMeter::install_scope`]) — that is how an evaluation
    /// pass gets exact per-pass counts even when several passes share
    /// one backend concurrently and fork work onto the shared pool.
    pub fn record(&self, op: FheOp) {
        self.cell(op).fetch_add(1, Ordering::Relaxed);
        copse_pool::with_task_context(|ctx| {
            if let Some(scoped) = ctx.and_then(|c| c.downcast_ref::<OpMeter>()) {
                // A pass may meter through the scoped meter itself
                // (e.g. nested instrumentation); never double-count.
                if !std::ptr::eq(scoped, self) {
                    scoped.cell(op).fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    }

    /// Installs this meter as the current thread's scoped sink until
    /// the returned guard drops. While installed, every op recorded on
    /// this thread — and, via the pool's task-context propagation, on
    /// any pool task forked from it, transitively — is mirrored here
    /// in addition to the recording backend's own meter. Scopes nest;
    /// the innermost wins. NTT transforms are mirrored the same way
    /// (see [`OpMeter::transforms`]).
    pub fn install_scope(self: &Arc<Self>) -> copse_pool::TaskContextGuard {
        copse_pool::set_task_context(Arc::clone(self) as copse_pool::TaskContext)
    }

    /// Runs `f` under a fresh installed scope and returns its result
    /// with the meter holding exactly what `f` recorded — ops and
    /// transforms, pool-forked work included.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Arc<OpMeter>) {
        let meter = Arc::new(OpMeter::new());
        let value = {
            let _scope = meter.install_scope();
            f()
        };
        (value, meter)
    }

    /// Takes a snapshot of the current counts.
    pub fn snapshot(&self) -> OpCounts {
        OpCounts {
            encrypt: self.encrypt.load(Ordering::Relaxed),
            decrypt: self.decrypt.load(Ordering::Relaxed),
            rotate: self.rotate.load(Ordering::Relaxed),
            add: self.add.load(Ordering::Relaxed),
            constant_add: self.constant_add.load(Ordering::Relaxed),
            multiply: self.multiply.load(Ordering::Relaxed),
            constant_multiply: self.constant_multiply.load(Ordering::Relaxed),
        }
    }

    /// NTT transforms executed while this meter was the installed
    /// scope (on the installing thread and every pool task forked from
    /// it). A meter that was never installed reads zero.
    pub fn transforms(&self) -> TransformCounts {
        self.transforms.counts()
    }

    /// [`OpMeter::transforms`] by transform length.
    pub fn transform_sizes(&self) -> TransformSizeCounts {
        self.transforms.sizes()
    }

    /// Key switches run while this meter was the installed scope,
    /// scoped like [`OpMeter::transforms`]. A meter that was never
    /// installed reads zero.
    pub fn key_switches(&self) -> KeySwitchCounts {
        let [rotation, relinearisation] = &self.key_switches;
        KeySwitchCounts {
            rotation: rotation.load(Ordering::Relaxed),
            relinearisation: relinearisation.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        for op in FheOp::ALL {
            self.cell(op).store(0, Ordering::Relaxed);
        }
        self.transforms.reset();
        for cell in &self.key_switches {
            cell.store(0, Ordering::Relaxed);
        }
    }

    fn cell(&self, op: FheOp) -> &AtomicU64 {
        match op {
            FheOp::Encrypt => &self.encrypt,
            FheOp::Decrypt => &self.decrypt,
            FheOp::Rotate => &self.rotate,
            FheOp::Add => &self.add,
            FheOp::ConstantAdd => &self.constant_add,
            FheOp::Multiply => &self.multiply,
            FheOp::ConstantMultiply => &self.constant_multiply,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let m = OpMeter::new();
        m.record(FheOp::Add);
        m.record(FheOp::Add);
        m.record(FheOp::Multiply);
        let s = m.snapshot();
        assert_eq!(s.add, 2);
        assert_eq!(s.multiply, 1);
        assert_eq!(s.encrypt, 0);
    }

    #[test]
    fn since_diffs_counts() {
        let m = OpMeter::new();
        m.record(FheOp::Rotate);
        let before = m.snapshot();
        m.record(FheOp::Rotate);
        m.record(FheOp::ConstantAdd);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.rotate, 1);
        assert_eq!(delta.constant_add, 1);
        assert_eq!(delta.add, 0);
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn since_panics_on_negative() {
        let a = OpCounts {
            add: 1,
            ..OpCounts::default()
        };
        let b = OpCounts {
            add: 2,
            ..OpCounts::default()
        };
        let _ = a.since(&b);
    }

    #[test]
    fn multiplies_combined_folds_constant() {
        let m = OpMeter::new();
        m.record(FheOp::Multiply);
        m.record(FheOp::ConstantMultiply);
        m.record(FheOp::ConstantMultiply);
        assert_eq!(m.snapshot().multiplies_combined(), 3);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = OpMeter::new();
        for op in FheOp::ALL {
            m.record(op);
        }
        m.reset();
        assert_eq!(m.snapshot(), OpCounts::default());
    }

    #[test]
    fn plus_adds_componentwise() {
        let a = OpCounts {
            add: 3,
            rotate: 1,
            ..OpCounts::default()
        };
        let b = OpCounts {
            add: 2,
            encrypt: 5,
            ..OpCounts::default()
        };
        let c = a.plus(&b);
        assert_eq!(c.add, 5);
        assert_eq!(c.rotate, 1);
        assert_eq!(c.encrypt, 5);
    }

    #[test]
    fn meter_is_shareable_across_threads() {
        let m = std::sync::Arc::new(OpMeter::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.record(FheOp::Add);
                    }
                });
            }
        });
        assert_eq!(m.snapshot().add, 4000);
    }

    #[test]
    fn scoped_meter_mirrors_ops_from_pool_forked_tasks() {
        let backend_meter = OpMeter::new();
        let pass = Arc::new(OpMeter::new());
        {
            let _scope = pass.install_scope();
            backend_meter.record(FheOp::Add);
            copse_pool::global().scope_indices(8, 4, |_| backend_meter.record(FheOp::Rotate));
        }
        // Recorded after the scope closed: backend only.
        backend_meter.record(FheOp::Multiply);
        let scoped = pass.snapshot();
        assert_eq!(scoped.add, 1);
        assert_eq!(scoped.rotate, 8, "pool-forked ops attributed to the pass");
        assert_eq!(scoped.multiply, 0);
        // The backend meter still carries the full totals.
        let totals = backend_meter.snapshot();
        assert_eq!(totals.rotate, 8);
        assert_eq!(totals.multiply, 1);
    }

    #[test]
    fn scoped_meter_does_not_double_count_itself() {
        let m = Arc::new(OpMeter::new());
        let _scope = m.install_scope();
        m.record(FheOp::Add);
        assert_eq!(m.snapshot().add, 1);
    }

    #[test]
    fn nested_scopes_innermost_wins() {
        let outer = Arc::new(OpMeter::new());
        let inner = Arc::new(OpMeter::new());
        let backend = OpMeter::new();
        let _outer = outer.install_scope();
        {
            let _inner = inner.install_scope();
            backend.record(FheOp::Add);
        }
        backend.record(FheOp::Rotate);
        assert_eq!(inner.snapshot().add, 1);
        assert_eq!(outer.snapshot().add, 0, "shadowed while inner installed");
        assert_eq!(outer.snapshot().rotate, 1, "restored after inner dropped");
    }

    #[test]
    fn display_names() {
        assert_eq!(FheOp::ConstantAdd.to_string(), "Constant Add");
        let s = OpCounts::default().to_string();
        assert!(s.contains("Mult=0"));
    }

    #[test]
    fn transform_counters_accumulate_and_diff() {
        // Other tests in this binary run transforms concurrently: the
        // scope counts exactly its own (pool-forked ones included), the
        // process-wide view at least those.
        let process_before = transform_snapshot();
        let ((), scope) = OpMeter::measure(|| {
            record_ntt_forward(64);
            copse_pool::global().scope_indices(4, 4, |_| record_ntt_forward(64));
            record_ntt_inverse(64);
        });
        record_ntt_inverse(64); // after the scope closed
        let delta = scope.transforms();
        assert_eq!((delta.forward, delta.inverse), (5, 1));
        assert_eq!(delta.total(), 6);
        assert_eq!(delta.to_string(), "fwd=5 inv=1");
        let process = transform_snapshot().since(&process_before);
        assert!(process.forward >= 5 && process.inverse >= 2, "{process}");
        scope.reset();
        assert_eq!(scope.transforms(), TransformCounts::default());
    }

    #[test]
    fn key_switches_count_only_in_an_installed_scope() {
        record_key_switch(KeySwitch::Rotation); // no scope: nowhere
        let ((), scope) = OpMeter::measure(|| {
            record_key_switch(KeySwitch::Relinearisation);
            copse_pool::global().scope_indices(3, 3, |_| record_key_switch(KeySwitch::Rotation));
        });
        let counts = KeySwitchCounts {
            rotation: 3,
            relinearisation: 1,
        };
        assert_eq!(scope.key_switches(), counts);
        scope.reset();
        assert_eq!(scope.key_switches(), KeySwitchCounts::default());
    }

    #[test]
    fn per_size_counters_bucket_by_length() {
        let ((), scope) = OpMeter::measure(|| {
            record_ntt_forward(16);
            record_ntt_forward(16);
            record_ntt_inverse(256);
        });
        let sizes = scope.transform_sizes();
        assert_eq!(sizes.at(16), 2);
        assert_eq!(sizes.at(256), 1);
        assert_eq!(sizes.total(), 3);
        assert_eq!(sizes.nonzero(), vec![(16, 2), (256, 1)]);
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn transform_since_panics_on_negative() {
        let a = TransformCounts {
            forward: 1,
            inverse: 0,
        };
        let b = TransformCounts {
            forward: 2,
            inverse: 0,
        };
        let _ = a.since(&b);
    }
}
