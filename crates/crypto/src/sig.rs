//! Simulated public-key infrastructure (§3.1 "Cryptographic primitives").
//!
//! The paper assumes that "faulty processes cannot forge signatures of
//! correct processes". Inside a closed simulation this contract can be
//! enforced *by construction*: a [`Signer`] holds a per-process secret and is
//! handed only to the node that owns it; signatures are HMAC-style SHA-256
//! tags over (secret, signer id, message). Byzantine behaviours receive their
//! own signers only, so the only way to produce `⟨m⟩_{σ_i}` is to *be*
//! `P_i`. Verification recomputes the tag via the shared [`KeyStore`].
//!
//! This substitutes computational unforgeability with structural
//! unforgeability — the property actually used by the paper's proofs.
//!
//! **Verified-signature memo.** Algorithm 1 re-checks the same `n − t`
//! proposal signatures on every Quad message it receives, while a run only
//! ever creates `Θ(n)` distinct signatures. A [`KeyStore`] therefore
//! remembers every signature that verified, together with the exact bytes
//! it verified over. The memo is shared by every clone of one key store,
//! so its scope is whatever shares it: one simulation, or one service cell.
//! Only successful verifications are stored, and a hit needs a byte-equal
//! message under the identical [`Signature`] (signer and tag). A hit thus
//! returns what recomputing the tag returned the first time, for the same
//! inputs: the memo caches a deterministic function and its soundness does
//! not rest on the tags being unforgeable. [`KeyStore::counts`] reports the
//! work it does and saves.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use validity_core::ProcessId;

use crate::sha256::{sha256, Digest, Sha256};

/// A digital signature `⟨m⟩_{σ_i}`: the claimed signer plus the tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    signer: ProcessId,
    tag: Digest,
}

impl Signature {
    /// The process that (claims to have) produced the signature.
    pub fn signer(&self) -> ProcessId {
        self.signer
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨…⟩σ{}", self.signer.0 + 1)
    }
}

/// The shared key material of the PKI: per-process secrets derived from a
/// setup seed. Cheap to clone (`Arc` inside).
///
/// # Examples
///
/// ```
/// use validity_core::ProcessId;
/// use validity_crypto::sig::KeyStore;
///
/// let ks = KeyStore::new(4, 42);
/// let signer = ks.signer(ProcessId(0));
/// let sig = signer.sign(b"hello");
/// assert!(ks.verify(b"hello", &sig));
/// assert!(!ks.verify(b"tampered", &sig));
/// ```
#[derive(Clone, Debug)]
pub struct KeyStore {
    inner: Arc<KeyStoreInner>,
}

#[derive(Debug)]
struct KeyStoreInner {
    secrets: Vec<Digest>,
    memo: Mutex<Memo>,
}

/// The verified-signature memo and the work counts kept under its lock.
#[derive(Debug, Default)]
struct Memo {
    /// Every signature that verified, mapped to the bytes it verified over.
    verified: HashMap<Signature, Box<[u8]>>,
    counts: SigCounts,
}

/// Deterministic work counts of one [`KeyStore`] and all its clones.
///
/// `tags` counts the SHA-256 tags actually computed: one per
/// [`Signer::sign`] and one per verification the memo could not answer.
/// Verifications with an out-of-range signer count in `verifies` only.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SigCounts {
    /// [`KeyStore::verify`] calls.
    pub verifies: u64,
    /// Tags computed (sign calls plus memo misses).
    pub tags: u64,
    /// Verifications answered by the memo.
    pub memo_hits: u64,
}

impl KeyStore {
    /// Generates key material for `n` processes from a setup seed.
    pub fn new(n: usize, seed: u64) -> Self {
        let secrets = (0..n)
            .map(|i| {
                let mut h = Sha256::new();
                h.update(b"validity-crypto/keygen");
                h.update(seed.to_le_bytes());
                h.update((i as u64).to_le_bytes());
                h.finalize()
            })
            .collect();
        KeyStore {
            inner: Arc::new(KeyStoreInner {
                secrets,
                memo: Mutex::default(),
            }),
        }
    }

    /// Number of processes provisioned.
    pub fn n(&self) -> usize {
        self.inner.secrets.len()
    }

    /// Hands out the signing capability of process `p`.
    ///
    /// In a simulation harness, call this once per node and give each node
    /// only its own signer — that is what makes forgery impossible.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn signer(&self, p: ProcessId) -> Signer {
        assert!(p.index() < self.n(), "no key material for {p}");
        Signer {
            keystore: self.clone(),
            id: p,
        }
    }

    fn memo(&self) -> MutexGuard<'_, Memo> {
        // The memo is consistent after every statement, so a panic on
        // another thread holding the lock leaves nothing to repair.
        self.inner
            .memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The work counts so far, summed over every clone of this key store.
    pub fn counts(&self) -> SigCounts {
        self.memo().counts
    }

    fn tag(&self, p: ProcessId, msg: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(b"validity-crypto/sig");
        h.update(self.inner.secrets[p.index()]);
        h.update((p.index() as u64).to_le_bytes());
        h.update((msg.len() as u64).to_le_bytes());
        h.update(msg);
        h.finalize()
    }

    /// Verifies `sig` over `msg` (public operation).
    ///
    /// A signature that verified before over byte-equal `msg` is answered
    /// from the memo (see the module docs); otherwise the tag is recomputed,
    /// and remembered if it matches.
    pub fn verify(&self, msg: impl AsRef<[u8]>, sig: &Signature) -> bool {
        let msg = msg.as_ref();
        let mut memo = self.memo();
        memo.counts.verifies += 1;
        if sig.signer.index() >= self.n() {
            return false;
        }
        if memo.verified.get(sig).is_some_and(|m| **m == *msg) {
            memo.counts.memo_hits += 1;
            return true;
        }
        memo.counts.tags += 1;
        let valid = self.tag(sig.signer, msg) == sig.tag;
        if valid {
            memo.verified.insert(*sig, msg.into());
        }
        valid
    }
}

/// The signing capability of a single process.
#[derive(Clone, Debug)]
pub struct Signer {
    keystore: KeyStore,
    id: ProcessId,
}

impl Signer {
    /// The owning process.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Signs `msg` as this process.
    pub fn sign(&self, msg: impl AsRef<[u8]>) -> Signature {
        self.keystore.memo().counts.tags += 1;
        Signature {
            signer: self.id,
            tag: self.keystore.tag(self.id, msg.as_ref()),
        }
    }
}

/// The bytes signed for a message: the `domain` tag, a zero byte, then each
/// part prefixed by its length as a little-endian `u64`. The length prefixes
/// make the encoding injective on the list of parts.
pub fn message_bytes(domain: &str, parts: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    write_message_bytes(&mut out, domain, parts);
    out
}

/// Overwrites `out` with [`message_bytes`]`(domain, parts)`, reusing its
/// allocation.
pub fn write_message_bytes(out: &mut Vec<u8>, domain: &str, parts: &[&[u8]]) {
    out.clear();
    out.extend_from_slice(domain.as_bytes());
    out.push(0);
    for p in parts {
        out.extend_from_slice(&(p.len() as u64).to_le_bytes());
        out.extend_from_slice(p);
    }
}

/// Convenience: digest of [`message_bytes`].
pub fn message_digest(domain: &str, parts: &[&[u8]]) -> Digest {
    sha256(message_bytes(domain, parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sign_verify_roundtrip() {
        let ks = KeyStore::new(4, 7);
        for i in 0..4 {
            let s = ks.signer(ProcessId(i));
            let sig = s.sign(b"msg");
            assert!(ks.verify(b"msg", &sig));
            assert_eq!(sig.signer(), ProcessId(i));
        }
    }

    #[test]
    fn tampered_message_fails() {
        let ks = KeyStore::new(4, 7);
        let sig = ks.signer(ProcessId(1)).sign(b"original");
        assert!(!ks.verify(b"other", &sig));
    }

    #[test]
    fn claimed_signer_must_match() {
        // A signature by P2 presented as P3's is rejected: the tag binds the
        // signer identity.
        let ks = KeyStore::new(4, 7);
        let sig = ks.signer(ProcessId(1)).sign(b"m");
        let forged = Signature {
            signer: ProcessId(2),
            tag: sig.tag,
        };
        assert!(!ks.verify(b"m", &forged));
    }

    #[test]
    fn different_seeds_are_incompatible() {
        let ks1 = KeyStore::new(4, 1);
        let ks2 = KeyStore::new(4, 2);
        let sig = ks1.signer(ProcessId(0)).sign(b"m");
        assert!(!ks2.verify(b"m", &sig));
    }

    #[test]
    #[should_panic(expected = "no key material")]
    fn signer_out_of_range_panics() {
        let ks = KeyStore::new(2, 1);
        let _ = ks.signer(ProcessId(5));
    }

    #[test]
    fn memo_hit_needs_a_byte_equal_message() {
        let ks = KeyStore::new(4, 7);
        let sig = ks.signer(ProcessId(1)).sign(b"original");
        assert!(ks.verify(b"original", &sig));
        assert!(ks.verify(b"original", &sig));
        assert!(!ks.verify(b"originaL", &sig));
        assert!(!ks.verify(b"original+", &sig));
        assert!(!ks.verify(b"", &sig));
        assert_eq!(
            ks.counts(),
            SigCounts {
                verifies: 5,
                tags: 1 + 4,
                memo_hits: 1,
            }
        );
    }

    #[test]
    fn memo_does_not_carry_a_tag_to_another_signer() {
        let ks = KeyStore::new(4, 7);
        let sig = ks.signer(ProcessId(1)).sign(b"m");
        assert!(ks.verify(b"m", &sig));
        for p in [0, 2, 3, 4, 99] {
            let forged = Signature {
                signer: ProcessId(p),
                tag: sig.tag,
            };
            assert!(!ks.verify(b"m", &forged), "forged as P{p}");
        }
        assert!(ks.verify(b"m", &sig));
    }

    #[test]
    fn memo_is_scoped_to_one_key_store() {
        let ks1 = KeyStore::new(4, 1);
        let sig = ks1.signer(ProcessId(0)).sign(b"m");
        assert!(ks1.verify(b"m", &sig));
        // Clones share the memo ...
        let clone = ks1.clone();
        assert!(clone.verify(b"m", &sig));
        assert_eq!(ks1.counts().memo_hits, 1);
        // ... a key store from another seed shares nothing.
        let ks2 = KeyStore::new(4, 2);
        assert!(!ks2.verify(b"m", &sig));
        assert!(!ks2.verify(b"m", &sig));
        assert_eq!(ks2.counts().memo_hits, 0);
    }

    #[test]
    fn failed_verifications_are_not_cached() {
        let ks = KeyStore::new(4, 7);
        let sig = ks.signer(ProcessId(2)).sign(b"m");
        assert!(!ks.verify(b"x", &sig));
        assert!(!ks.verify(b"x", &sig));
        assert_eq!(ks.counts().memo_hits, 0);
        assert_eq!(ks.counts().tags, 3);
    }

    proptest! {
        /// Over random sequences of signs and verifies — genuine, foreign
        /// (another seed), re-attributed and over other messages — the
        /// memoized key store answers exactly as a fresh one does.
        #[test]
        fn memoized_verify_equals_fresh_verify(
            seed in 0u64..4,
            other_seed in 0u64..4,
            ops in prop::collection::vec(
                (any::<bool>(), 0u32..4, 0u8..4, any::<usize>(), 0u32..6),
                1..64,
            ),
        ) {
            let ks = KeyStore::new(4, seed);
            let foreign = KeyStore::new(4, other_seed);
            let mut sigs = Vec::new();
            for (sign, signer, msg, pick, claim) in ops {
                if sign || sigs.is_empty() {
                    let from = if msg % 2 == 0 { &ks } else { &foreign };
                    sigs.push(from.signer(ProcessId(signer)).sign([msg]));
                    continue;
                }
                let mut sig: Signature = sigs[pick % sigs.len()];
                if claim < 5 {
                    // Re-attribute the tag, possibly to an unknown signer.
                    sig.signer = ProcessId(claim);
                }
                let fresh = KeyStore::new(4, seed);
                prop_assert_eq!(ks.verify([msg], &sig), fresh.verify([msg], &sig));
            }
        }
    }

    #[test]
    fn message_bytes_is_injective_on_parts() {
        // Length prefixes prevent concatenation ambiguity.
        let a = message_bytes("d", &[b"ab", b"c"]);
        let b = message_bytes("d", &[b"a", b"bc"]);
        assert_ne!(a, b);
        assert_ne!(message_digest("d1", &[b"x"]), message_digest("d2", &[b"x"]));
        // A reused buffer is overwritten, not appended to.
        let mut buf = b"stale bytes".to_vec();
        write_message_bytes(&mut buf, "d", &[b"ab", b"c"]);
        assert_eq!(buf, a);
    }
}
