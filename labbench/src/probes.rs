//! Crypto and `vector_verify` unit costs, measured from outside at the
//! system sizes the workloads run (n ∈ {4, 7, 13}). Each probe warms its
//! caches first, then reports the median over repetitions of a timed loop.

use std::hint::black_box;
use std::time::Instant;

use validity_core::{InputConfig, ProcessId, SystemParams};
use validity_crypto::{sha256, KeyStore, ReedSolomon, ThresholdScheme};
use validity_protocols::{proposal_sign_bytes, vector_verify, SignedProposal};

use crate::sys::median;

/// System sizes probed, each at optimal resilience.
pub const SIZES: [(usize, usize); 3] = [(4, 1), (7, 2), (13, 4)];

const REPS: usize = 15;

/// Median seconds per call of `f`, over `REPS` timed loops of `iters`
/// calls each, after one untimed warm-up loop.
fn per_call(iters: u32, mut f: impl FnMut(u32)) -> f64 {
    for i in 0..iters {
        f(i);
    }
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_secs_f64() / f64::from(iters)
        })
        .collect();
    median(&samples)
}

/// Every probe as `(metric name, value)`.
pub fn run() -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let msg = [7u8; 64];
    out.push((
        "crypto.sha256_64b_ns".to_string(),
        per_call(2_000, |_| {
            black_box(sha256(black_box(&msg)));
        }) * 1e9,
    ));
    let keys = KeyStore::new(4, 1);
    let signer = keys.signer(ProcessId(0));
    out.push((
        "crypto.sign_ns".to_string(),
        per_call(2_000, |_| {
            black_box(signer.sign(black_box(&msg)));
        }) * 1e9,
    ));
    let sig = signer.sign(msg);
    out.push((
        "crypto.verify_ns".to_string(),
        per_call(2_000, |_| {
            assert!(keys.verify(black_box(&msg), black_box(&sig)));
        }) * 1e9,
    ));
    for (n, t) in SIZES {
        let params = SystemParams::new(n, t).expect("probe sizes are valid");
        let q = params.quorum();
        // A fresh seed per call: each run cell builds its own key store.
        out.push((
            format!("crypto.keystore_new_us.n{n}"),
            per_call(200, |i| {
                black_box(KeyStore::new(n, u64::from(i)));
            }) * 1e6,
        ));
        let keys = KeyStore::new(n, 3);
        let scheme = ThresholdScheme::new(keys.clone(), q);
        let digest = sha256(b"probe");
        let partials: Vec<_> = (0..q)
            .map(|i| scheme.partially_sign(&keys.signer(ProcessId(i as u32)), &digest))
            .collect();
        out.push((
            format!("crypto.tsig_combine_us.n{n}"),
            per_call(200, |_| {
                black_box(
                    scheme
                        .combine(&digest, partials.iter().copied())
                        .expect("a full quorum of valid partials combines"),
                );
            }) * 1e6,
        ));
        let tsig = scheme
            .combine(&digest, partials.iter().copied())
            .expect("a full quorum of valid partials combines");
        out.push((
            format!("crypto.tsig_verify_us.n{n}"),
            per_call(2_000, |_| {
                assert!(scheme.verify(black_box(&digest), black_box(&tsig)));
            }) * 1e6,
        ));
        // Reed–Solomon (t + 1, n) as the data-dissemination layer builds
        // it, over an n-word blob, decoded from every share.
        let rs = ReedSolomon::new(t + 1, n).expect("valid (t + 1, n) code");
        let blob: Vec<u8> = (0..8 * n as u8).collect();
        let shares = rs.encode_blob(&blob);
        out.push((
            format!("crypto.rs_decode_us.n{n}"),
            per_call(200, |_| {
                let got = rs
                    .decode_blob(black_box(&shares), 0)
                    .expect("clean shares decode");
                assert_eq!(got.len(), blob.len());
            }) * 1e6,
        ));
        // Algorithm 1's Quad `verify` on a full quorum proof.
        let verify = vector_verify::<u64>(keys.clone(), params);
        let pairs: Vec<(usize, u64)> = (0..q).map(|i| (i, 10 * i as u64)).collect();
        let vector =
            InputConfig::from_pairs(params, pairs.iter().copied()).expect("a quorum is valid");
        let proof: Vec<SignedProposal<u64>> = pairs
            .iter()
            .map(|&(i, v)| SignedProposal {
                from: ProcessId(i as u32),
                value: v,
                sig: keys
                    .signer(ProcessId(i as u32))
                    .sign(proposal_sign_bytes(&v)),
            })
            .collect();
        out.push((
            format!("protocols.alg1.vector_verify_us.n{n}"),
            per_call(200, |_| {
                assert!(verify(black_box(&vector), black_box(&proof)));
            }) * 1e6,
        ));
    }
    out
}
