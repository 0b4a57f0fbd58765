//! Determinism guarantees of the differential crosscheck oracle.
//!
//! Two invariants are pinned here:
//!
//! 1. **Thread-count byte-identity.** The built-in `crosscheck` suite
//!    renders the same `crosscheck@1` JSON (and Markdown) at worker
//!    counts 1, 2, and default — the same guarantee every other lab
//!    artifact carries, so a CI matrix cell and a laptop produce
//!    diffable reports.
//! 2. **Golden fingerprints.** SHA-256 of both renderings of the
//!    built-in suite is committed, pinning the grid, the per-cell
//!    engine verdicts, the agreement grading, and the emitters all at
//!    once. Any drift — a registry change, an applicability-band
//!    change, a grading-rule change, an emitter change — shows up as a
//!    fingerprint mismatch and must be intentional.
//!
//! The suite's golden hashes were recorded when the crosscheck suite was
//! introduced; the `crosscheck-chaos` grid's were recorded from the report
//! as it stood before the classifier column was shared per `(property, n,
//! t)` triple. Do **not** regenerate them unless a crosscheck-schema or
//! grid change is intentional.

use validity_crypto::sha256;
use validity_lab::{compare_emitted, run_crosscheck, AgreementLevel, CrosscheckMatrix};

/// SHA-256 of `CrosscheckReport::to_json()` for the built-in `crosscheck`
/// suite (what `lab crosscheck --json …` writes).
const CROSSCHECK_JSON: &str = "b3a8962d15124d980888db423516f66171c09c86c5d5e6f03a307fbef703eef4";

/// SHA-256 of the same suite's Markdown rendering.
const CROSSCHECK_MD: &str = "4849e8c8fb34dab9878112bd9ed15bd24016ddb129bb92b94bbaa5d645d3b656";

/// SHA-256 of the `crosscheck-chaos` grid's JSON rendering (what `lab
/// crosscheck --chaos --json …` writes).
const CHAOS_CROSSCHECK_JSON: &str =
    "4e162f74e393de4395a02af35841f861d6d96f279f486034288c0499adece335";

/// SHA-256 of the same grid's Markdown rendering.
const CHAOS_CROSSCHECK_MD: &str =
    "d69e0758c433fa2bb76f955c7b4fd75a73942dc562022ff204c963dce165cf8b";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn crosscheck_suite_is_byte_identical_across_thread_counts() {
    let matrix = CrosscheckMatrix::suite();
    let (one, _, _) = run_crosscheck(&matrix, 1);
    let (two, _, _) = run_crosscheck(&matrix, 2);
    let (many, _, _) = run_crosscheck(&matrix, 0);
    assert_eq!(one.to_json(), two.to_json());
    assert_eq!(one.to_json(), many.to_json());
    assert_eq!(one.to_markdown(), many.to_markdown());
    assert_eq!(
        one.count(AgreementLevel::Disagreement),
        0,
        "the built-in suite must run clean"
    );
    assert!(
        one.count(AgreementLevel::Full) > 0,
        "the built-in suite must have cells every oracle agrees on"
    );
    // The emitters are part of the oracle: both renderings must tell the
    // same per-cell story.
    assert_eq!(
        compare_emitted(&one.to_json(), &one.to_markdown()),
        Vec::<String>::new()
    );
}

#[test]
fn crosscheck_suite_matches_golden_fingerprint() {
    let (report, _, _) = run_crosscheck(&CrosscheckMatrix::suite(), 0);
    assert_eq!(
        hex(sha256(report.to_json()).as_ref()),
        CROSSCHECK_JSON,
        "crosscheck JSON drifted from its recorded fingerprint"
    );
    assert_eq!(
        hex(sha256(report.to_markdown()).as_ref()),
        CROSSCHECK_MD,
        "crosscheck Markdown drifted from its recorded fingerprint"
    );
}

#[test]
fn chaos_crosscheck_is_byte_identical_and_matches_golden_fingerprint() {
    let matrix = CrosscheckMatrix::chaos();
    let (one, _, _) = run_crosscheck(&matrix, 1);
    let (many, _, _) = run_crosscheck(&matrix, 0);
    assert_eq!(one.to_json(), many.to_json());
    assert_eq!(one.to_markdown(), many.to_markdown());

    // A faulty network may slow a column down, never split the oracles —
    // and the grid is not vacuous.
    assert_eq!(one.count(AgreementLevel::Disagreement), 0);
    assert!(one.count(AgreementLevel::Full) > 0);

    assert_eq!(
        hex(sha256(one.to_json()).as_ref()),
        CHAOS_CROSSCHECK_JSON,
        "chaos crosscheck JSON drifted from its recorded fingerprint"
    );
    assert_eq!(
        hex(sha256(one.to_markdown()).as_ref()),
        CHAOS_CROSSCHECK_MD,
        "chaos crosscheck Markdown drifted from its recorded fingerprint"
    );
}
