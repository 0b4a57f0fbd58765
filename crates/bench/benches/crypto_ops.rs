//! Criterion micro-benchmarks for the crypto substrate: SHA-256, PKI
//! signatures, threshold combination, GF(256) arithmetic and Reed–Solomon
//! coding (the ADD hot path).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use validity_core::ProcessId;
use validity_crypto::{sha256, Gf256, KeyStore, ReedSolomon, ThresholdScheme};

fn bench_sha256(c: &mut Criterion) {
    let small = vec![0xabu8; 64];
    let large = vec![0xcdu8; 4096];
    c.bench_function("sha256/64B", |b| b.iter(|| sha256(black_box(&small))));
    c.bench_function("sha256/4KiB", |b| b.iter(|| sha256(black_box(&large))));
}

/// `sig/verify_memo_hit` re-verifies one fixed signature, so after the
/// first iteration every call is answered by the key store's
/// verified-signature memo. A cold verify computes one tag, the same work
/// as `sig/sign`.
fn bench_signatures(c: &mut Criterion) {
    let ks = KeyStore::new(16, 7);
    let signer = ks.signer(ProcessId(3));
    let msg = b"propose(v) for view 17";
    let sig = signer.sign(msg);
    c.bench_function("sig/sign", |b| b.iter(|| signer.sign(black_box(msg))));
    c.bench_function("sig/verify_memo_hit", |b| {
        b.iter(|| ks.verify(black_box(msg), &sig))
    });

    let scheme = ThresholdScheme::new(ks.clone(), 11);
    let digest = sha256(msg);
    let partials: Vec<_> = (0..11)
        .map(|i| scheme.partially_sign(&ks.signer(ProcessId(i)), &digest))
        .collect();
    c.bench_function("tsig/combine_11_of_16", |b| {
        b.iter(|| scheme.combine(&digest, partials.iter().copied()).unwrap())
    });
}

fn bench_gf256(c: &mut Criterion) {
    c.bench_function("gf256/mul", |b| {
        b.iter(|| black_box(Gf256(0x57)) * black_box(Gf256(0x83)))
    });
    c.bench_function("gf256/inv", |b| b.iter(|| black_box(Gf256(0x57)).inv()));
}

fn bench_reed_solomon(c: &mut Criterion) {
    let rs = ReedSolomon::new(5, 16).unwrap();
    let blob: Vec<u8> = (0..200u8).collect();
    let shares = rs.encode_blob(&blob);
    c.bench_function("rs/encode_blob_200B_k5_n16", |b| {
        b.iter(|| rs.encode_blob(black_box(&blob)))
    });
    c.bench_function("rs/decode_erasures", |b| {
        b.iter(|| rs.decode_blob(black_box(&shares[..5]), 0).unwrap())
    });
    let mut corrupted = shares.clone();
    for byte in &mut corrupted[0].data {
        *byte ^= 0xff;
    }
    c.bench_function("rs/decode_berlekamp_welch_1_error", |b| {
        b.iter(|| rs.decode_blob(black_box(&corrupted), 1).unwrap())
    });
}

criterion_group!(
    benches,
    bench_sha256,
    bench_signatures,
    bench_gf256,
    bench_reed_solomon
);
criterion_main!(benches);
