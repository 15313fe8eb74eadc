//! # copse-fhe — the FHE substrate for COPSE
//!
//! This crate provides everything the COPSE compiler and runtime need
//! from a fully homomorphic encryption library with *ciphertext
//! packing*: packed GF(2) SIMD vectors where homomorphic `Add` is
//! slot-wise XOR and `Multiply` is slot-wise AND (the plaintext space of
//! BGV with `p = 2`, as used by HElib in the paper).
//!
//! Three interchangeable backends implement the [`FheBackend`] trait:
//!
//! * [`ClearBackend`] — exact packed semantics over plaintext bits with
//!   per-ciphertext multiplicative-depth tracking, a hard depth budget
//!   derived from [`EncryptionParams`], and full operation metering
//!   ([`OpMeter`]). Wall-clock on this backend is proportional to slot
//!   work; [`CostModel`] converts metered counts to modeled BGV
//!   milliseconds.
//! * [`AbstractBackend`] — no bits at all: a ciphertext is its width,
//!   depth and (under a [`LevelRule`]) BGV chain level, so the static
//!   analyzer can run a circuit to read its cost.
//! * [`BgvBackend`] — a from-scratch leveled BGV scheme over the prime
//!   cyclotomic ring `Z_q[X]/Φ_m(X)` with an RNS modulus chain, GF(2)
//!   slot packing via cyclotomic factorisation and CRT idempotents, and
//!   slot rotation by Galois automorphisms. It is a faithful but
//!   teaching-grade implementation (no constant-time hardening, modest
//!   parameters) used for end-to-end encrypted runs and differential
//!   testing against the clear backend.
//!
//! Supporting types: [`BitVec`] (packed slot vectors), [`BitSliced`]
//! (the paper's transposed fixed-point representation),
//! [`EncryptionParams`] (the Table 5 parameter space), and
//! [`MaybeEncrypted`] (plaintext-vs-encrypted model operands).
//!
//! ## Example
//!
//! ```
//! use copse_fhe::{BitVec, ClearBackend, FheBackend};
//!
//! let backend = ClearBackend::with_defaults();
//! let x = backend.encrypt_bits(&BitVec::from_bools(&[true, true, false]));
//! let y = backend.encrypt_bits(&BitVec::from_bools(&[false, true, true]));
//! let xor = backend.add(&x, &y);
//! assert_eq!(xor.bits().to_bools(), vec![true, false, true]);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod bgv;
pub mod bitslice;
pub mod bitvec;
pub mod clear;
pub mod cost;
pub mod math;
pub mod meter;
pub mod params;

pub use backend::{
    BackendError, CiphertextCodecError, FheBackend, MaybeEncrypted, NoiseBudget, RingDiagonals,
};
pub use bgv::{
    AbstractBackend, AbstractCiphertext, BgvBackend, BgvCiphertext, BgvParams, BgvPlaintext, Level,
    LevelRule, RingFlavor,
};
pub use bitslice::BitSliced;
pub use bitvec::BitVec;
pub use clear::{ClearBackend, ClearCiphertext, ClearConfig, ClearPlaintext};
pub use cost::CostModel;
pub use meter::{
    transform_snapshot, FheOp, KeySwitch, KeySwitchCounts, OpCounts, OpMeter, TransformCounts,
    TransformSizeCounts,
};
pub use params::{EncryptionParams, SecurityLevel};
