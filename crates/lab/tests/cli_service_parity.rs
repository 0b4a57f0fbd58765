//! CLI parity of the suite synonym paths.
//!
//! `lab run --suite service` delegates to the service driver and
//! `lab run --suite crosscheck` to the crosscheck driver, each with its
//! argv intact — so the synonym and the direct subcommand must behave
//! identically. Two facets are pinned per driver:
//!
//! 1. **Dry-run parity.** `lab run --suite <x> --dry-run` and
//!    `lab <x> --dry-run` print the same cell count (byte-identical
//!    stdout). A count that differs between the two spellings would mean
//!    the synonym path silently runs a different grid.
//! 2. **Refusal parity.** Every `lab run` flag the driver refuses is
//!    refused on *both* spellings, with the same named-flag diagnostic —
//!    the synonym path must not let a refused flag slip through as
//!    silently ignored.
//!
//! Two refusals that guard against vacuous or mislabelled sweeps ride
//! along: an empty `--seeds` range on every subcommand, and the
//! custom-matrix flags next to `lab run --suite`.

use std::process::{Command, Output};

fn lab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lab"))
        .args(args)
        .output()
        .expect("spawn lab binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The `lab run` surface the service driver refuses (mirrors
/// `SERVICE_REFUSALS` in the binary — update both together).
const SERVICE_REFUSED: [&str; 15] = [
    "--shard",
    "--observe",
    "--adaptive",
    "--precision",
    "--max-seeds",
    "--fits",
    "--fit-axis",
    "--max-steps",
    "--protocols",
    "--validities",
    "--behaviors",
    "--schedules",
    "--systems",
    "--faults",
    "--batch",
];

/// The surface the crosscheck driver refuses (mirrors
/// `CROSSCHECK_REFUSALS` in the binary — update both together).
const CROSSCHECK_REFUSED: [&str; 16] = [
    "--shard",
    "--observe",
    "--precision",
    "--max-seeds",
    "--fits",
    "--fit-axis",
    "--protocols",
    "--validities",
    "--behaviors",
    "--schedules",
    "--systems",
    "--faults",
    "--batch",
    "--slots",
    "--pipelines",
    "--batches",
];

#[test]
fn service_dry_run_counts_match_across_spellings() {
    let direct = lab(&["service", "--dry-run"]);
    let synonym = lab(&["run", "--suite", "service", "--dry-run"]);
    assert!(direct.status.success(), "{}", stderr(&direct));
    assert!(synonym.status.success(), "{}", stderr(&synonym));
    assert_eq!(stdout(&direct), stdout(&synonym));
    assert!(
        stdout(&direct).contains(" cells "),
        "dry-run must print a cell count: {}",
        stdout(&direct)
    );
}

#[test]
fn crosscheck_dry_run_counts_match_across_spellings() {
    let direct = lab(&["crosscheck", "--dry-run"]);
    let synonym = lab(&["run", "--suite", "crosscheck", "--dry-run"]);
    assert!(direct.status.success(), "{}", stderr(&direct));
    assert!(synonym.status.success(), "{}", stderr(&synonym));
    assert_eq!(stdout(&direct), stdout(&synonym));
    assert!(
        stdout(&direct).contains(" cells "),
        "dry-run must print a cell count: {}",
        stdout(&direct)
    );
}

#[test]
fn service_refusals_fire_on_both_spellings() {
    for flag in SERVICE_REFUSED {
        for args in [
            vec!["service", flag, "--dry-run"],
            vec!["run", "--suite", "service", flag, "--dry-run"],
        ] {
            let out = lab(&args);
            assert!(
                !out.status.success(),
                "{args:?} must be refused, not accepted"
            );
            let err = stderr(&out);
            assert!(
                err.contains(&format!("{flag} is not available with `lab service`")),
                "{args:?} must name the refused flag; got: {err}"
            );
        }
    }
}

#[test]
fn crosscheck_refusals_fire_on_both_spellings() {
    for flag in CROSSCHECK_REFUSED {
        for args in [
            vec!["crosscheck", flag, "--dry-run"],
            vec!["run", "--suite", "crosscheck", flag, "--dry-run"],
        ] {
            let out = lab(&args);
            assert!(
                !out.status.success(),
                "{args:?} must be refused, not accepted"
            );
            let err = stderr(&out);
            assert!(
                err.contains(&format!("{flag} is not available with `lab crosscheck`")),
                "{args:?} must name the refused flag; got: {err}"
            );
        }
    }
}

#[test]
fn accepted_flags_still_work_on_the_synonym_path() {
    // The synonym path forwards value flags, not just switches: a seed
    // override must change the enumerated count the same way on both
    // spellings.
    let direct = lab(&["service", "--seeds", "0..4", "--dry-run"]);
    let synonym = lab(&["run", "--suite", "service", "--seeds", "0..4", "--dry-run"]);
    assert!(direct.status.success(), "{}", stderr(&direct));
    assert_eq!(stdout(&direct), stdout(&synonym));
    assert!(
        stdout(&direct).contains("seeds 0..4"),
        "{}",
        stdout(&direct)
    );

    let direct = lab(&["crosscheck", "--seeds", "0..2", "--dry-run"]);
    let synonym = lab(&[
        "run",
        "--suite",
        "crosscheck",
        "--seeds",
        "0..2",
        "--dry-run",
    ]);
    assert!(direct.status.success(), "{}", stderr(&direct));
    assert_eq!(stdout(&direct), stdout(&synonym));
    assert!(
        stdout(&direct).contains("seeds 0..2"),
        "{}",
        stdout(&direct)
    );
}

#[test]
fn empty_seed_ranges_are_refused_by_every_subcommand() {
    // A range with no seeds runs no cells: every gate would pass having
    // checked nothing.
    for args in [
        vec![
            "run",
            "--protocols",
            "alg1-auth",
            "--seeds",
            "3..3",
            "--dry-run",
        ],
        vec!["service", "--seeds", "3..3", "--dry-run"],
        vec!["crosscheck", "--seeds", "3..3", "--dry-run"],
        vec!["mutate", "--seeds", "3..3", "--dry-run"],
    ] {
        let out = lab(&args);
        assert!(!out.status.success(), "{args:?} must be refused");
        let err = stderr(&out);
        assert!(
            err.contains("empty seed range: '3..3'"),
            "{args:?} must name the empty range; got: {err}"
        );
    }
}

#[test]
fn suite_runs_refuse_custom_matrix_flags() {
    // A suite fixes its own axes: `--seeds` would otherwise be silently
    // ignored and the dry run would still report the suite's 18 cells.
    let out = lab(&["run", "--suite", "quick", "--seeds", "0..9", "--dry-run"]);
    assert!(!out.status.success(), "--seeds next to --suite accepted");
    let err = stderr(&out);
    assert!(
        err.contains("--seeds is not available with --suite"),
        "must name the refused flag; got: {err}"
    );
    let out = lab(&["run", "--suite", "quick", "--dry-run"]);
    assert!(out.status.success(), "{}", stderr(&out));
}
