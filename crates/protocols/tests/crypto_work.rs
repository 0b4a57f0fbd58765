//! Pins the signature work of Algorithm 1 at zero tolerance, and checks
//! that the key store's verified-signature memo never turns a bad proof
//! into a good one.
//!
//! The counts are deterministic: one fault-free run is one event sequence,
//! and every sign and verify call of the run goes through the one
//! [`KeyStore`] of its [`ProtocolContext`].

use validity_core::{InputConfig, ProcessId, SystemParams};
use validity_crypto::{KeyStore, SigCounts};
use validity_protocols::registry::{self, ProtocolContext};
use validity_protocols::vector_auth::{proposal_sign_bytes, vector_verify, SignedProposal};
use validity_simnet::{NodeKind, SimConfig, Simulation};

/// Runs fault-free alg1-auth at `(n, t)` and returns the key store counts.
fn alg1_counts(n: usize, t: usize, seed: u64) -> SigCounts {
    let params = SystemParams::new(n, t).unwrap();
    let spec = registry::find_vector::<u64>("alg1-auth").expect("registered");
    let ctx = ProtocolContext::new(params, seed);
    let nodes = (0..n)
        .map(|i| NodeKind::Correct(spec.machine(&ctx, ProcessId::from_index(i), i as u64)))
        .collect();
    let mut sim = Simulation::new(SimConfig::new(params).seed(seed), nodes);
    sim.run_until_decided();
    assert!(sim.all_correct_decided());
    ctx.keys.counts()
}

#[test]
fn alg1_signature_work_is_pinned() {
    // Every node signs 3 messages: its proposal and one prepare and one
    // commit vote. Without the memo every verify computed a tag, so a run
    // computed `tags + memo_hits` tags: 84 / 216 / 408.
    let expected = [
        ((4, 1), (72, 22, 62)),
        ((7, 2), (195, 38, 178)),
        ((10, 3), (378, 54, 354)),
    ];
    for ((n, t), (verifies, tags, memo_hits)) in expected {
        let want = SigCounts {
            verifies,
            tags,
            memo_hits,
        };
        assert_eq!(
            alg1_counts(n, t, 7),
            want,
            "alg1-auth at ({n}, {t}), seed 7"
        );
    }
}

/// A quorum vector at n = 4 with its genuine proof.
fn quorum_proof(
    ks: &KeyStore,
    params: SystemParams,
) -> (InputConfig<u64>, Vec<SignedProposal<u64>>) {
    let pairs: Vec<(usize, u64)> = (0..params.quorum()).map(|i| (i, 10 + i as u64)).collect();
    let vector = InputConfig::from_pairs(params, pairs.iter().copied()).unwrap();
    let proof = pairs
        .iter()
        .map(|&(i, v)| SignedProposal {
            from: ProcessId::from_index(i),
            value: v,
            sig: ks
                .signer(ProcessId::from_index(i))
                .sign(proposal_sign_bytes(&v)),
        })
        .collect();
    (vector, proof)
}

#[test]
fn memo_does_not_accept_a_swapped_proof_value() {
    let params = SystemParams::new(4, 1).unwrap();
    let ks = KeyStore::new(4, 7);
    let verify = vector_verify::<u64>(ks.clone(), params);
    let (vector, proof) = quorum_proof(&ks, params);
    assert!(verify(&vector, &proof));
    assert!(verify(&vector, &proof), "a memo hit still verifies");

    // P2's value is swapped after the original proof verified: the
    // signature stays, the signed bytes change.
    let mut swapped_proof = proof.clone();
    swapped_proof[1].value = 99;
    let swapped_vector = InputConfig::from_pairs(params, [(0, 10), (1, 99), (2, 12)]).unwrap();
    assert!(!verify(&swapped_vector, &swapped_proof));
    // Swapping only the vector, or only the proof, fails as well.
    assert!(!verify(&swapped_vector, &proof));
    assert!(!verify(&vector, &swapped_proof));
    // The genuine proof is still accepted afterwards.
    assert!(verify(&vector, &proof));
}
