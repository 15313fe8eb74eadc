//! COPSE over the real lattice backend: the full compile -> encrypt ->
//! classify -> decrypt pipeline on genuine BGV ciphertexts.
//!
//! Parameters are kept tiny (`m = 31`: 6 SIMD slots) so this runs in
//! debug-mode CI; `examples/bgv_end_to_end.rs` exercises a larger model
//! at `m = 127`.

use copse::core::compiler::CompileOptions;
use copse::core::runtime::{Diane, Maurice, ModelForm, Sally};
use copse::fhe::{BgvBackend, BgvParams};
use copse::forest::model::Forest;

/// A model whose widths fit in 6 slots: b = 3, K = 2, q = 4,
/// leaves = 4, precision 4.
fn tiny_forest() -> Forest {
    Forest::parse(
        "precision 4\n\
         labels no maybe yes\n\
         tree (branch 0 8 (branch 1 4 (leaf 0) (leaf 1)) (branch 0 3 (leaf 1) (leaf 2)))\n",
    )
    .expect("valid model")
}

fn tiny_backend() -> BgvBackend {
    BgvBackend::new(BgvParams {
        m: 31,
        prime_bits: 25,
        chain_len: 12,
        ks_digit_bits: 7,
        error_eta: 2,
        keygen_seed: 0xE2E,
    })
}

#[test]
fn copse_classifies_correctly_over_real_bgv() {
    let forest = tiny_forest();
    let backend = tiny_backend();
    let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
    assert!(maurice.compiled().meta.quantized <= backend.nslots());
    assert!(maurice.compiled().meta.n_leaves <= backend.nslots());

    let sally = Sally::host(&backend, maurice.deploy(&backend, ModelForm::Encrypted));
    let diane = Diane::new(&backend, maurice.public_query_info());

    // Sweep enough of the 4-bit feature space to hit every leaf.
    for x in [0u64, 5, 9] {
        for y in [0u64, 7, 12] {
            let query = diane.encrypt_features(&[x, y]).unwrap();
            let outcome = diane.decrypt_result(&sally.classify(&query));
            assert_eq!(
                outcome.leaf_hits().to_bools(),
                forest.classify_leaf_hits(&[x, y]),
                "query ({x}, {y})"
            );
        }
    }
}

#[test]
fn plaintext_model_form_works_over_bgv_too() {
    let forest = tiny_forest();
    let backend = tiny_backend();
    let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
    let sally = Sally::host(&backend, maurice.deploy(&backend, ModelForm::Plain));
    let diane = Diane::new(&backend, maurice.public_query_info());
    for features in [[1u64, 1], [10, 2], [6, 6]] {
        let query = diane.encrypt_features(&features).unwrap();
        let outcome = diane.decrypt_result(&sally.classify(&query));
        assert_eq!(
            outcome.leaf_hits().to_bools(),
            forest.classify_leaf_hits(&features),
            "query {features:?}"
        );
    }
}

#[test]
fn ntt_and_schoolbook_ring_paths_classify_identically() {
    // Same params and keygen seed, so both backends hold the same keys
    // and the same NTT-friendly chain; only the ring multiplication
    // algorithm differs. Every label must match bitwise, and both must
    // match the cleartext model.
    let forest = tiny_forest();
    let params = BgvParams {
        m: 31,
        prime_bits: 25,
        chain_len: 12,
        ks_digit_bits: 7,
        error_eta: 2,
        keygen_seed: 0xE2E,
    };
    let ntt = BgvBackend::new(params);
    assert!(ntt.scheme().ring().ntt_enabled());
    assert_eq!(
        ntt.scheme().ring().ntt_ready_primes(),
        params.chain_len,
        "keygen must produce a fully NTT-friendly chain"
    );
    let school = BgvBackend::new_with_ntt(params, false);
    assert!(!school.scheme().ring().ntt_enabled());

    let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
    let sally_ntt = Sally::host(&ntt, maurice.deploy(&ntt, ModelForm::Encrypted));
    let diane_ntt = Diane::new(&ntt, maurice.public_query_info());
    let sally_school = Sally::host(&school, maurice.deploy(&school, ModelForm::Encrypted));
    let diane_school = Diane::new(&school, maurice.public_query_info());

    for features in [[0u64, 0], [5, 7], [9, 12], [3, 4], [15, 15]] {
        let qn = diane_ntt.encrypt_features(&features).unwrap();
        let qs = diane_school.encrypt_features(&features).unwrap();
        let hits_ntt = diane_ntt.decrypt_result(&sally_ntt.classify(&qn));
        let hits_school = diane_school.decrypt_result(&sally_school.classify(&qs));
        assert_eq!(
            hits_ntt.leaf_hits(),
            hits_school.leaf_hits(),
            "query {features:?}"
        );
        assert_eq!(
            hits_ntt.leaf_hits().to_bools(),
            forest.classify_leaf_hits(&features),
            "query {features:?}"
        );
    }
}

#[test]
fn eval_domain_and_coefficient_paths_classify_identically() {
    // Same keys either way; the evaluation-domain backend key-switches
    // against pre-transformed key parts and multiplies cached model
    // diagonal transforms, while the schoolbook oracle holds
    // coefficient-form keys and never transforms. Classification must
    // match bitwise, and both must match the cleartext model —
    // covering key_switch, rotate and mul_plain end to end, on both
    // plaintext-model (cached diagonals) and encrypted-model forms.
    let forest = tiny_forest();
    let params = BgvParams {
        m: 31,
        prime_bits: 25,
        chain_len: 12,
        ks_digit_bits: 7,
        error_eta: 2,
        keygen_seed: 0xE2E,
    };
    let eval = BgvBackend::new(params);
    let coeff = BgvBackend::new_with_ntt(params, false);

    let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
    for form in [ModelForm::Plain, ModelForm::Encrypted] {
        let sally_eval = Sally::host(&eval, maurice.deploy(&eval, form));
        let diane_eval = Diane::new(&eval, maurice.public_query_info());
        let sally_coeff = Sally::host(&coeff, maurice.deploy(&coeff, form));
        let diane_coeff = Diane::new(&coeff, maurice.public_query_info());

        for features in [[0u64, 0], [5, 7], [9, 12], [15, 15]] {
            let qe = diane_eval.encrypt_features(&features).unwrap();
            let qc = diane_coeff.encrypt_features(&features).unwrap();
            let hits_eval = diane_eval.decrypt_result(&sally_eval.classify(&qe));
            let hits_coeff = diane_coeff.decrypt_result(&sally_coeff.classify(&qc));
            assert_eq!(
                hits_eval.leaf_hits(),
                hits_coeff.leaf_hits(),
                "{form:?} query {features:?}"
            );
            assert_eq!(
                hits_eval.leaf_hits().to_bools(),
                forest.classify_leaf_hits(&features),
                "{form:?} query {features:?}"
            );
        }
    }
}

#[test]
fn bgv_and_clear_backends_agree_on_the_same_model() {
    use copse::fhe::ClearBackend;
    let forest = tiny_forest();
    let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();

    let bgv = tiny_backend();
    let sally_bgv = Sally::host(&bgv, maurice.deploy(&bgv, ModelForm::Encrypted));
    let diane_bgv = Diane::new(&bgv, maurice.public_query_info());

    let clear = ClearBackend::with_defaults();
    let sally_clear = Sally::host(&clear, maurice.deploy(&clear, ModelForm::Encrypted));
    let diane_clear = Diane::new(&clear, maurice.public_query_info());

    for features in [[4u64, 9], [15, 0], [8, 8]] {
        let qb = diane_bgv.encrypt_features(&features).unwrap();
        let qc = diane_clear.encrypt_features(&features).unwrap();
        assert_eq!(
            diane_bgv
                .decrypt_result(&sally_bgv.classify(&qb))
                .leaf_hits(),
            diane_clear
                .decrypt_result(&sally_clear.classify(&qc))
                .leaf_hits(),
            "query {features:?}"
        );
    }
}

#[test]
fn pooled_classification_is_bitwise_identical_to_sequential_over_bgv() {
    // Full pipeline on genuine BGV ciphertexts, kernel- and
    // stage-parallel vs fully sequential: both backends share the
    // keygen seed, the *same* encrypted queries feed both evaluators,
    // and the resulting ciphertexts must match bit for bit — the
    // strongest end-to-end form of the copse-pool determinism
    // contract.
    use copse::core::parallel::Parallelism;
    use copse::core::runtime::{EncryptedQuery, EvalOptions};
    use copse::fhe::FheBackend;

    let forest = tiny_forest();
    let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();

    let seq_be = tiny_backend();
    let seq = Sally::host(&seq_be, maurice.deploy(&seq_be, ModelForm::Encrypted));
    let diane = Diane::new(&seq_be, maurice.public_query_info());
    let queries: Vec<EncryptedQuery<_>> = [[1u64, 1], [10, 2], [6, 6]]
        .iter()
        .map(|q| diane.encrypt_features(q).unwrap())
        .collect();
    let want = seq.classify_batch(&queries);

    for threads in [2usize, 4] {
        let par_be = tiny_backend();
        par_be.set_kernel_threads(threads);
        assert_eq!(par_be.kernel_threads(), threads);
        let par = Sally::with_options(
            &par_be,
            maurice.deploy(&par_be, ModelForm::Encrypted),
            EvalOptions {
                parallelism: Parallelism { threads },
                ..EvalOptions::default()
            },
        );
        let par_queries: Vec<EncryptedQuery<_>> = queries
            .iter()
            .map(|q| EncryptedQuery::from_planes(q.planes().to_vec()))
            .collect();
        let got = par.classify_batch(&par_queries);
        assert_eq!(got.len(), want.len());
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(
                par_be.serialize_ciphertext(g.ciphertext()),
                seq_be.serialize_ciphertext(w.ciphertext()),
                "threads = {threads}"
            );
        }
    }
}
