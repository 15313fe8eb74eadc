//! Cross-commit byte identity of the evaluation pipeline.
//!
//! Solo and batched evaluation share one pipeline (a unit of
//! `1..=lanes` queries through the same four stages), so no in-tree
//! comparison of "batched vs per-query" can show that a refactor of
//! that pipeline kept the bits: both sides move together. This test
//! pins the result **ciphertext bytes** on real BGV instead. The
//! constants were first captured at commit `814d9c2`, when
//! `classify_batch_traced` and `classify_batch_packed` were still two
//! hand-copied pipelines, and regenerated three times since: once when
//! queries started entering the modulus chain at the level their
//! circuit needs (and the level rule's noise estimate became an integer
//! magnitude with order-independent addition and `φ`-bound plaintext
//! products, which moved every level), the circuit and its operation
//! counts unchanged; and once when the default comparator became the
//! divide-and-conquer `SecCompVariant::Tree` — a different circuit (two
//! fewer ct·ct comparison multiplies at this model's `p = 4`), so
//! different result bits; and once when matrix products moved onto the
//! backend's whole slot ring — the same circuit and the same metered
//! counts, but every product, solo and packed, realised as one
//! automorphism per ring shift with no masks, so different result bits
//! (and lower levels), and an encrypted model deployed as its ring
//! diagonals, so its deploy draws a different share of the randomness
//! stream. The encrypted-model constants moved once more when a
//! matrix's ciphertext products began to accumulate as one summed
//! tensor, relinearised and reduced once per matrix instead of once per
//! product; the plaintext-model ones did not move, because a sum of
//! plaintext products is exact before and after its inverse transforms.
//! All six moved when Diane began to encrypt her planes symmetrically,
//! directly at the entry level, instead of encrypting them under the
//! public key at the top of the chain and switching them down: other
//! query bits and noise, and the result frame's 4-byte residues.
//! All six moved again when the `Tree` comparator stopped
//! relinearising products that nothing multiplies again: a node's
//! `lt` keeps its products unsummed until an `lt_lo` or the root sums
//! them as one product sum, with one relinearisation (at this model's
//! `p = 4`, 3 instead of 4 in the plain form and 5 instead of 8 in the
//! encrypted one) — the same circuit and metered counts, other levels
//! for the summed terms. Hosting Maurice's thresholds and masks at the
//! entry level, in product form, moved none.
//! They must keep matching across any change that claims to be
//! structure-only.
//!
//! Everything that feeds the backend's randomness stream is fixed: the
//! `keygen_seed`, and the order keygen → deploy → encrypt `lanes + 1`
//! queries one after another → `classify_batch`, evaluated
//! sequentially. `lanes + 1` queries cover one full packed unit plus a
//! solo remainder under `PackingMode::Auto`, and `lanes + 1` solo
//! units under `PackingMode::Off`.
//!
//! A PR that *legitimately* changes ciphertext bits (ROADMAP items
//! 1–2: a different rotation or modulus schedule) regenerates the
//! constants — run the test, copy the hashes out of the failure
//! message — and is then held to the decrypt-equality regime of
//! `tests/packing_props.rs` and `tests/bgv_end_to_end.rs` instead.

use copse::core::compiler::{CompileOptions, Fusion};
use copse::core::runtime::{Diane, EvalOptions, Maurice, ModelForm, PackingMode, Sally};
use copse::fhe::{BgvBackend, BgvParams, FheBackend};
use copse::forest::model::Forest;

/// The one-branch model of `tests/packing_props.rs`: its stride fits
/// several lanes into the 6-slot tiny BGV ring.
fn one_branch_forest() -> Forest {
    Forest::parse("precision 4\nlabels no yes\ntree (branch 0 8 (leaf 0) (leaf 1))\n")
        .expect("valid model")
}

/// FNV-1a, 64 bit.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Hash of every result ciphertext of one `lanes + 1` batch, in query
/// order, on a fresh backend.
fn batch_hash(form: ModelForm, packing: PackingMode, shuffle_seed: Option<u64>) -> u64 {
    let backend = BgvBackend::new(BgvParams {
        m: 31,
        prime_bits: 25,
        chain_len: 14,
        ks_digit_bits: 7,
        error_eta: 2,
        keygen_seed: 0xE2E,
    });
    // The shuffled cases compile fused: the result shuffle costs a
    // level, and without the reshuffle stage the 14-prime chain still
    // has the headroom the unpack mask needs, so they pin the packed
    // shuffle and the fused (no reshuffle stage) branch together.
    let compile = CompileOptions {
        fuse_reshuffle: if shuffle_seed.is_some() {
            Fusion::Always
        } else {
            Fusion::Never
        },
        ..CompileOptions::default()
    };
    let maurice = Maurice::compile(&one_branch_forest(), compile).expect("compile");
    let sally = Sally::with_options(
        &backend,
        maurice.deploy(&backend, form),
        EvalOptions {
            packing,
            shuffle_seed,
            ..EvalOptions::default()
        },
    );
    // The lane count Auto plans for, read off a default-options host
    // (only public API, so this file runs unchanged at the commit the
    // constants came from); Off evaluates the same queries solo.
    let lanes = Sally::host(&backend, sally.model().clone())
        .pack_plan()
        .expect("6 slots fit several one-branch lanes")
        .lanes;
    assert_eq!(sally.pack_plan().is_some(), packing == PackingMode::Auto);
    let diane = Diane::new(&backend, sally.client_query_info());
    let queries: Vec<_> = (0..=lanes as u64)
        .map(|i| {
            diane
                .encrypt_features(&[(i * 5) % 16])
                .expect("valid query")
        })
        .collect();
    sally
        .classify_batch(&queries)
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, result| {
            fnv1a(h, &backend.serialize_ciphertext(result.ciphertext()))
        })
}

#[test]
fn result_ciphertext_bytes_match_the_two_pipeline_parent() {
    use ModelForm::{Encrypted, Plain};
    use PackingMode::{Auto, Off};
    let cases = [
        (Plain, Auto, None, 0x3EEB_F3F3_7AD6_DEC2_u64),
        (Plain, Off, None, 0xA9C0_4420_A03F_6D88),
        (Encrypted, Auto, None, 0x7F79_38CA_3C9F_5400),
        (Encrypted, Off, None, 0xFF1A_CB24_BCF7_26DD),
        (Encrypted, Auto, Some(0xFEED), 0xE5EA_4143_6ED4_7315),
        (Encrypted, Off, Some(0xFEED), 0xEEF9_901A_865B_8BC6),
    ];
    let got: Vec<u64> = cases
        .iter()
        .map(|&(form, packing, shuffle, _)| batch_hash(form, packing, shuffle))
        .collect();
    let want: Vec<u64> = cases.iter().map(|c| c.3).collect();
    assert_eq!(
        got, want,
        "result ciphertext bytes changed; got {got:#018X?} for {cases:?}"
    );
}
