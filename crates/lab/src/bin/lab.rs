//! The `lab` CLI: run scenario sweeps (whole or sharded), list the
//! registries, merge shard partials, diff reports, emit / gate on the CI
//! bench-trend artifact, profile sweeps, and gate the engine events/sec
//! baseline.
//!
//! ```text
//! lab list [--names]
//! lab run --suite fig1 --threads 8 --json fig1.json --md fig1.md
//! lab service --threads 8 --json service.json --md service.md
//! lab service --slots 8 --pipelines 1,2,4 --batches 1,8 --seeds 0..4 --timing
//! lab crosscheck --threads 8 --json crosscheck.json --md crosscheck.md
//! lab crosscheck --seeds 0..4 --max-steps 5000000 --timing
//! lab run --suite universal --dry-run
//! lab run --suite quick --observe --timing
//! lab run --suite complexity --shard 2/4 --json part2.json
//! lab run --suite complexity --adaptive --precision 0.05 --batch 2 --max-seeds 16
//! lab run --protocols universal/alg1-auth --validities strong,median \
//!         --behaviors silent,crash --schedules sync,partial-sync \
//!         --systems 4,1;7,2 --faults 0,max --seeds 0..8 \
//!         --fits messages,words --fit-axis n --max-steps 5000000
//! lab merge part1.json part2.json part3.json part4.json --json full.json
//! lab diff fig1.json other.json
//! lab trend --suites complexity,universal --out BENCH_lab.json
//! lab trend --from-reports complexity.json,universal.json \
//!           --baseline BENCH_lab_baseline.json --out BENCH_lab.json
//! lab trend --suites complexity,universal --update-baseline
//! lab profile --suite quick --top 5 --timeline hot
//! lab perf --bench BENCH_simnet.json --baseline ci/BENCH_simnet_baseline.json
//! lab perf --bench BENCH_simnet.json --update-baseline
//! ```

use std::ops::Range;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use validity_adversary::BehaviorId;
use validity_lab::json::Json;
use validity_lab::perf::{
    compare_service, compare_simnet, ServiceBench, SimnetBench, SERVICE_BENCH_SCHEMA,
};
use validity_lab::trend::{compare, BenchArtifact, BenchSuite};
use validity_lab::{
    compare_emitted, hottest_by_events, merge, observe_json, observe_markdown, profile_markdown,
    run_crosscheck, run_mutate, run_service, suites, timeline_for, worker_count, AgreementLevel,
    CrosscheckMatrix, FitAxis, FitMeasure, MutateMatrix, PartialReport, ProtocolAxis, SamplingSpec,
    ScenarioMatrix, ScheduleSpec, ServiceMatrix, ShardSpec, SweepEngine, SweepReport, ValiditySpec,
    CATALOGUED_EQUIVALENT, PARTIAL_SCHEMA, PARTIAL_SCHEMA_V1, REPORT_SCHEMA,
};
use validity_protocols::{vector_registry, MutationOp};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.split_first() {
        Some((&"list", rest)) => {
            list(rest.contains(&"--names"));
            ExitCode::SUCCESS
        }
        Some((&"run", rest)) => run(rest),
        Some((&"service", rest)) => service_cmd(rest),
        Some((&"crosscheck", rest)) => crosscheck_cmd(rest),
        Some((&"mutate", rest)) => mutate_cmd(rest),
        Some((&"merge", rest)) => merge_cmd(rest),
        Some((&"diff", rest)) => diff(rest),
        Some((&"trend", rest)) => trend(rest),
        Some((&"profile", rest)) => profile(rest),
        Some((&"perf", rest)) => perf(rest),
        _ => {
            eprintln!(
                "usage: lab <list | run | service | crosscheck | mutate | merge | diff | trend | profile | perf> ...\n\n\
                 lab list [--names]\n\
                 lab run --suite <name> [--threads N] [--json FILE] [--md FILE]\n\
                 \x20        [--max-steps N] [--shard i/m] [--dry-run] [--timing] [--observe]\n\
                 \x20        [--adaptive] [--precision X] [--batch N] [--max-seeds N]\n\
                 lab run --protocols P,.. --validities V,.. --behaviors B,..\n\
                 \x20        --schedules S,.. --systems n,t;n,t --faults 0,max --seeds a..b\n\
                 \x20        [--fits messages,words,latency] [--fit-axis n|t|domain]\n\
                 \x20        [--max-steps N] [--shard i/m] [--dry-run] [--timing] [--observe]\n\
                 \x20        [--adaptive] [--precision X] [--batch N] [--max-seeds N]\n\
                 lab service [--threads N] [--json FILE] [--md FILE] [--seeds a..b]\n\
                 \x20        [--slots N] [--pipelines 1,2,..] [--batches 1,8,..]\n\
                 \x20        [--dry-run] [--timing]\n\
                 lab crosscheck [--threads N] [--json FILE] [--md FILE] [--seeds a..b]\n\
                 \x20        [--max-steps N] [--chaos | --adaptive] [--dry-run] [--timing]\n\
                 lab mutate [--threads N] [--json FILE] [--md FILE] [--seeds a..b]\n\
                 \x20        [--max-steps N] [--operators a,b,..] [--dry-run]\n\
                 lab merge <partial.json>... [--json FILE] [--md FILE]\n\
                 lab diff <a.json> <b.json>\n\
                 lab trend [--suites a,b,.. | --from-reports a.json,b.json]\n\
                 \x20        [--threads N] [--out FILE] [--baseline FILE] [--tolerance X]\n\
                 \x20        [--update-baseline]\n\
                 lab profile --suite <name> [--threads N] [--top K] [--out FILE]\n\
                 \x20        [--timeline BASE] [--cell LABEL]\n\
                 lab perf [--bench FILE] [--baseline FILE] [--tolerance X]\n\
                 \x20        [--update-baseline]"
            );
            ExitCode::FAILURE
        }
    }
}

/// Suites the CLI runs outside the [`ScenarioMatrix`] engine; `lab run
/// --suite <name>` delegates them to their own drivers.
const EXTRA_SUITES: [(&str, &str); 3] = [
    (
        "service",
        "repeated consensus as a replicated service (throughput/latency)",
    ),
    (
        "crosscheck",
        "differential oracle: every engine + classifier cross-checked per cell",
    ),
    (
        "mutate",
        "fault injection: every engine × mutation operator, kill matrix over the oracle",
    ),
];

fn list(names_only: bool) {
    if names_only {
        for name in suites::ALL {
            println!("{name}");
        }
        for (name, _) in EXTRA_SUITES {
            println!("{name}");
        }
        return;
    }
    println!("suites:");
    for name in suites::ALL {
        println!("  {name:12} {}", suites::describe(name).unwrap_or(""));
    }
    for (name, describe) in EXTRA_SUITES {
        println!("  {name:12} {describe}");
    }
    println!("\nprotocols (raw; prefix with 'universal/' to wrap in Algorithm 2):");
    for spec in vector_registry::<u64>() {
        println!("  {:14} {}", spec.name(), spec.complexity());
    }
    println!("\nvalidities:");
    for v in ValiditySpec::ALL {
        let runnable = if ValiditySpec::RUNNABLE.contains(&v) {
            "Λ available (runnable under Universal)"
        } else {
            "classification only"
        };
        println!("  {:18} {}", v.name(), runnable);
    }
    println!("\nbehaviors:");
    for b in BehaviorId::ALL {
        println!("  {:14} {}", b.name(), b.describe());
    }
    println!("\nmutation operators (for `lab mutate --operators`):");
    for op in MutationOp::ALL {
        println!("  {:22} {}", op.name(), op.describe());
    }
    println!("\nschedules:");
    for s in ScheduleSpec::ALL {
        println!("  {}", s.name());
    }
    println!("\nfit measures (for --fits):");
    for m in FitMeasure::ALL {
        println!("  {}", m.name());
    }
    println!("\nfit axes (for --fit-axis):");
    for a in FitAxis::ALL {
        println!("  {}", a.name());
    }
}

/// Every value-taking flag `lab run` understands.
const RUN_FLAGS: [&str; 18] = [
    "--suite",
    "--threads",
    "--json",
    "--md",
    "--protocols",
    "--validities",
    "--behaviors",
    "--schedules",
    "--systems",
    "--faults",
    "--seeds",
    "--fits",
    "--fit-axis",
    "--max-steps",
    "--shard",
    "--precision",
    "--batch",
    "--max-seeds",
];

/// Flags that take no value.
const RUN_SWITCHES: [&str; 4] = ["--dry-run", "--adaptive", "--timing", "--observe"];

/// The `lab run` flags that build a custom matrix. A `--suite` fixes its
/// own axes, so these are refused next to it rather than ignored.
const CUSTOM_MATRIX_FLAGS: [&str; 8] = [
    "--protocols",
    "--validities",
    "--behaviors",
    "--schedules",
    "--systems",
    "--faults",
    "--seeds",
    "--fits",
];

/// Rejects misspelled or unknown options — anything outside a subcommand's
/// value-taking `flags` and its `switches` — instead of silently falling
/// back to defaults (a sweep that quietly measures the wrong scenario is
/// worse than an error).
fn check_flags(rest: &[&str], flags: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < rest.len() {
        let arg = rest[i];
        if arg.starts_with("--") {
            if switches.contains(&arg) {
                i += 1;
                continue;
            }
            if !flags.contains(&arg) {
                return Err(format!(
                    "unknown option '{arg}'; known: {} {}",
                    flags.join(" "),
                    switches.join(" ")
                ));
            }
            if i + 1 >= rest.len() {
                return Err(format!("option '{arg}' wants a value"));
            }
            i += 2;
        } else {
            return Err(format!("unexpected argument '{arg}'"));
        }
    }
    Ok(())
}

fn opt_value<'a>(rest: &'a [&'a str], flag: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| *a == flag)
        .and_then(|i| rest.get(i + 1).copied())
}

fn parse_list<T>(
    text: &str,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    text.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse(s).ok_or_else(|| format!("unknown {what}: '{s}'")))
        .collect()
}

/// Parses a `--seeds a..b` range. An empty range (`b <= a`) is refused: a
/// sweep over no seeds runs no cells and would pass every gate vacuously.
fn parse_seeds(text: &str) -> Result<Range<u64>, String> {
    let (lo, hi) = text
        .split_once("..")
        .ok_or_else(|| format!("bad seed range: '{text}' (want a..b)"))?;
    let lo: u64 = lo.parse().map_err(|_| format!("bad seed: '{lo}'"))?;
    let hi: u64 = hi.parse().map_err(|_| format!("bad seed: '{hi}'"))?;
    if hi <= lo {
        return Err(format!(
            "empty seed range: '{text}' runs no seeds (want a..b with a < b)"
        ));
    }
    Ok(lo..hi)
}

fn build_custom(rest: &[&str]) -> Result<ScenarioMatrix, String> {
    let mut m = ScenarioMatrix::new("custom");
    m.protocols = parse_list(
        opt_value(rest, "--protocols").unwrap_or("universal/alg1-auth"),
        "protocol",
        ProtocolAxis::parse,
    )?;
    m.validities = parse_list(
        opt_value(rest, "--validities").unwrap_or("strong"),
        "validity",
        ValiditySpec::parse,
    )?;
    m.behaviors = opt_value(rest, "--behaviors")
        .unwrap_or("silent")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(BehaviorId::parse_or_err)
        .collect::<Result<Vec<_>, _>>()?;
    m.schedules = opt_value(rest, "--schedules")
        .unwrap_or("partial-sync")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(ScheduleSpec::parse_or_err)
        .collect::<Result<Vec<_>, _>>()?;
    m.faults = parse_list(
        opt_value(rest, "--faults").unwrap_or("max"),
        "fault load",
        |s| match s {
            "max" => Some(usize::MAX),
            s => s.parse().ok(),
        },
    )?;
    m.systems = opt_value(rest, "--systems")
        .unwrap_or("4,1;7,2")
        .split(';')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            let (n, t) = pair
                .split_once(',')
                .ok_or_else(|| format!("bad (n,t) pair: '{pair}'"))?;
            Ok((
                n.trim().parse().map_err(|_| format!("bad n: '{n}'"))?,
                t.trim().parse().map_err(|_| format!("bad t: '{t}'"))?,
            ))
        })
        .collect::<Result<Vec<(usize, usize)>, String>>()?;
    m.seeds = parse_seeds(opt_value(rest, "--seeds").unwrap_or("0..4"))?;
    m.fit_measures = parse_list(
        opt_value(rest, "--fits").unwrap_or(""),
        "fit measure",
        FitMeasure::parse,
    )?;
    Ok(m)
}

/// Parses the adaptive-sampling flags: `--adaptive` enables the defaults,
/// and any of `--precision` / `--batch` / `--max-seeds` both enables and
/// overrides. `Ok(None)` = fixed-seed sweep.
fn parse_sampling(rest: &[&str]) -> Result<Option<SamplingSpec>, String> {
    let precision = opt_value(rest, "--precision");
    let batch = opt_value(rest, "--batch");
    let max_seeds = opt_value(rest, "--max-seeds");
    if !rest.contains(&"--adaptive")
        && precision.is_none()
        && batch.is_none()
        && max_seeds.is_none()
    {
        return Ok(None);
    }
    let mut spec = SamplingSpec::default();
    if let Some(p) = precision {
        spec.precision = p
            .parse()
            .ok()
            .filter(|x: &f64| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| format!("--precision wants a finite non-negative number, got '{p}'"))?;
    }
    if let Some(b) = batch {
        spec.batch = b
            .parse()
            .ok()
            .filter(|n: &u64| *n >= 1)
            .ok_or_else(|| format!("--batch wants a positive seed count, got '{b}'"))?;
    }
    if let Some(s) = max_seeds {
        spec.max_seeds = s
            .parse()
            .ok()
            .filter(|n: &u64| *n >= 1)
            .ok_or_else(|| format!("--max-seeds wants a positive seed count, got '{s}'"))?;
    }
    if spec.batch > spec.max_seeds {
        if batch.is_none() {
            // Only the cap was given: shrink the *default* batch to fit it
            // rather than erroring about a flag the user never passed.
            spec.batch = spec.max_seeds;
        } else {
            return Err(format!(
                "--batch {} exceeds --max-seeds {}: the pilot batch alone \
                 would blow the per-group seed cap",
                spec.batch, spec.max_seeds
            ));
        }
    }
    Ok(Some(spec))
}

fn run(rest: &[&str]) -> ExitCode {
    // The service suite runs on its own driver (a repeated-consensus
    // pipeline, not a scenario sweep); `lab run --suite service` is a
    // synonym for `lab service` with the same argv.
    if opt_value(rest, "--suite") == Some("service") {
        return service_cmd(rest);
    }
    // Likewise the crosscheck suite: `lab run --suite crosscheck` is a
    // synonym for `lab crosscheck` with the same argv.
    if opt_value(rest, "--suite") == Some("crosscheck") {
        return crosscheck_cmd(rest);
    }
    // And the mutate suite: `lab run --suite mutate` delegates to the
    // fault-injection driver.
    if opt_value(rest, "--suite") == Some("mutate") {
        return mutate_cmd(rest);
    }
    if let Err(e) = check_flags(rest, &RUN_FLAGS, &RUN_SWITCHES) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if rest.contains(&"--suite") {
        if let Some(flag) = CUSTOM_MATRIX_FLAGS.iter().find(|f| rest.contains(f)) {
            eprintln!(
                "{flag} is not available with --suite: a suite fixes its own axes; \
                 drop --suite to sweep a custom matrix"
            );
            return ExitCode::FAILURE;
        }
    }
    let threads: usize = match opt_value(rest, "--threads").map(str::parse) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("--threads wants a number");
            return ExitCode::FAILURE;
        }
    };
    let mut matrix = match opt_value(rest, "--suite") {
        Some(name) => match suites::build(name) {
            Some(m) => m,
            None => {
                eprintln!("unknown suite '{name}'; see `lab list`");
                return ExitCode::FAILURE;
            }
        },
        None => match build_custom(rest) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
    };
    match opt_value(rest, "--max-steps").map(str::parse) {
        None => {}
        Some(Ok(n)) => matrix.max_steps = Some(n),
        Some(Err(_)) => {
            eprintln!("--max-steps wants a number");
            return ExitCode::FAILURE;
        }
    }
    match opt_value(rest, "--fit-axis") {
        None => {}
        Some(name) => match FitAxis::parse(name) {
            Some(axis) => matrix.fit_axis = axis,
            None => {
                eprintln!("unknown fit axis '{name}'; see `lab list`");
                return ExitCode::FAILURE;
            }
        },
    }
    // A measure that cannot fit along the declared axis would silently
    // produce an empty fits section — a sweep that quietly measures
    // nothing is worse than an error.
    let incompatible: Vec<&str> = matrix
        .fit_measures
        .iter()
        .filter(|m| {
            if matrix.fit_axis == FitAxis::Domain {
                m.is_run_measure()
            } else {
                !m.is_run_measure()
            }
        })
        .map(|m| m.name())
        .collect();
    if !incompatible.is_empty() {
        eprintln!(
            "fit measure(s) {} cannot fit along axis '{}': run measures \
             (messages/words/latency) pair with axes n and t, classify-cost \
             with axis domain",
            incompatible.join(", "),
            matrix.fit_axis,
        );
        return ExitCode::FAILURE;
    }
    match parse_sampling(rest) {
        Ok(sampling) => {
            if sampling.is_some() {
                if !matrix.fit_measures.iter().any(|m| m.is_run_measure()) {
                    eprintln!(
                        "warning: adaptive sampling with no run fit measure declared — \
                         there is nothing to estimate, so every group stops \
                         (vacuously stable) after its pilot batch; add --fits or \
                         pick a fit-bearing suite for precision-targeted sampling"
                    );
                }
                matrix.sampling = sampling;
            }
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    // An explicit `--shard` always takes the partial-report path, even
    // for the degenerate 1/1 partition: a pipeline parameterized over the
    // shard count must get a mergeable partial at m = 1 too, not a full
    // report that `lab merge` then refuses.
    let shard = match opt_value(rest, "--shard").map(ShardSpec::parse) {
        None => None,
        Some(Ok(s)) => Some(s),
        Some(Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if rest.contains(&"--dry-run") {
        if let Some(spec) = matrix.sampling {
            let units = matrix.work_units();
            let owned = shard.map_or(units.len(), |s| matrix.shard_units(s).len());
            println!(
                "{}: adaptive over {} of {} work unit(s); batches of {} up to {} \
                 seed(s)/group at precision {} (axis {})",
                matrix.name,
                owned,
                units.len(),
                spec.batch,
                spec.max_seeds,
                spec.precision,
                matrix.fit_axis,
            );
        } else if let Some(shard) = shard {
            println!(
                "{}: shard {} owns {} of {} cells",
                matrix.name,
                shard,
                matrix.shard_cells(shard).len(),
                matrix.len(),
            );
        } else {
            println!(
                "{}: {} cells ({} fit measure(s), max_steps {})",
                matrix.name,
                matrix.len(),
                matrix.fit_measures.len(),
                matrix
                    .max_steps
                    .map_or("none".to_string(), |n| n.to_string()),
            );
        }
        return ExitCode::SUCCESS;
    }
    let observing = rest.contains(&"--observe");
    if let Some(shard) = shard {
        if observing {
            eprintln!(
                "--observe is not available with --shard: observations are \
                 per-process; run the whole matrix observed, or profile it"
            );
            return ExitCode::FAILURE;
        }
        return run_shard(rest, &matrix, shard, threads);
    }
    let engine = SweepEngine::new(threads).observe(observing);
    match matrix.sampling {
        Some(spec) => eprintln!(
            "sweep '{}': adaptive over {} work unit(s) (precision {}) on {} worker thread(s)...",
            matrix.name,
            matrix.work_units().len(),
            spec.precision,
            engine.threads()
        ),
        None => eprintln!(
            "sweep '{}': {} cells on {} worker thread(s)...",
            matrix.name,
            matrix.len(),
            engine.threads()
        ),
    }
    let (report, sweep) = engine.run(&matrix);
    eprintln!(
        "done in {:.3}s wall ({} cells, {} violations, {} quarantined, {} fit(s) out of band)",
        sweep.wall.as_secs_f64(),
        report.cells.len(),
        report.violations(),
        report.quarantined.len(),
        report.fits_out_of_band(),
    );
    if let Some(s) = &report.sampling {
        eprintln!(
            "adaptive sampling: {} seed(s) consumed over {} group(s), {} capped",
            s.seeds_consumed(),
            s.groups.len(),
            s.capped(),
        );
    }

    let json_path = opt_value(rest, "--json")
        .map(String::from)
        .unwrap_or_else(|| format!("lab-{}.json", matrix.name));
    let md_path = opt_value(rest, "--md")
        .map(String::from)
        .unwrap_or_else(|| format!("lab-{}.md", matrix.name));
    // `--timing` and `--observe` append extra sections to the Markdown
    // output only. The JSON report and the default Markdown stay
    // byte-identical to plain runs — timing is nondeterministic, and even
    // the deterministic observe metrics must never leak into canonical
    // artifacts (their fingerprints cannot depend on instrumentation).
    let mut extra = String::new();
    if rest.contains(&"--timing") {
        extra.push_str(&validity_lab::timing_markdown(
            &sweep.timings,
            matrix.sampling.is_some(),
        ));
    }
    if observing {
        if !extra.is_empty() {
            extra.push('\n');
        }
        extra.push_str(&observe_markdown(&sweep.observed));
        // Side artifacts: the full-histogram JSON, plus a timeline export
        // of the hottest observed unit (deterministic choice — events are
        // seeded, so reruns pick the same cell).
        let base = json_path.strip_suffix(".json").unwrap_or(&json_path);
        let observe_path = format!("{base}.observe.json");
        if let Err(e) = std::fs::write(&observe_path, observe_json(&matrix.name, &sweep.observed)) {
            eprintln!("cannot write {observe_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("observe artifact: {observe_path}");
        if let Some(hot) = hottest_by_events(&sweep.observed) {
            if let Some(timeline) = timeline_for(&matrix, &hot.label) {
                let jsonl_path = format!("{base}.timeline.jsonl");
                let trace_path = format!("{base}.timeline.trace.json");
                for (path, text) in [
                    (&jsonl_path, timeline.to_jsonl()),
                    (&trace_path, timeline.to_chrome_trace()),
                ] {
                    if let Err(e) = std::fs::write(path, text) {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                eprintln!("timeline ({}): {jsonl_path}, {trace_path}", hot.label);
            }
        }
    }
    let extra_md = (!extra.is_empty()).then_some(extra);
    emit_reports_with(&report, &json_path, &md_path, extra_md.as_deref())
}

/// Every value-taking flag `lab service` understands (`--suite` is
/// accepted so `lab run --suite service` can delegate here with its argv
/// intact).
const SERVICE_FLAGS: [&str; 8] = [
    "--suite",
    "--threads",
    "--json",
    "--md",
    "--seeds",
    "--slots",
    "--pipelines",
    "--batches",
];

/// `lab service` flags that take no value.
const SERVICE_SWITCHES: [&str; 2] = ["--dry-run", "--timing"];

/// `lab run` surface that makes no sense for the service driver, each with
/// the reason it is refused — a named error beats silently ignoring a flag
/// the user believes is in effect.
const SERVICE_REFUSALS: [(&str, &str); 15] = [
    (
        "--shard",
        "service sweeps are small and there is no partial service report to merge; run unsharded",
    ),
    (
        "--observe",
        "the service report already carries per-slot latency and amortized cost; \
         use `lab profile` for engine metrics",
    ),
    (
        "--adaptive",
        "adaptive sampling targets fit precision, which service reports do not compute",
    ),
    (
        "--precision",
        "adaptive sampling targets fit precision, which service reports do not compute",
    ),
    (
        "--max-seeds",
        "adaptive sampling targets fit precision, which service reports do not compute; \
         set the seed axis directly with --seeds a..b",
    ),
    (
        "--fits",
        "service reports carry throughput and latency, not complexity fits",
    ),
    (
        "--fit-axis",
        "service reports carry throughput and latency, not complexity fits",
    ),
    (
        "--max-steps",
        "the service driver runs under the schedule's own event budget",
    ),
    (
        "--protocols",
        "the service suite fixes its axes; tune --slots/--pipelines/--batches/--seeds instead",
    ),
    (
        "--validities",
        "the service suite fixes its axes; tune --slots/--pipelines/--batches/--seeds instead",
    ),
    (
        "--behaviors",
        "the service suite fixes its axes; tune --slots/--pipelines/--batches/--seeds instead",
    ),
    (
        "--schedules",
        "the service suite fixes its axes; tune --slots/--pipelines/--batches/--seeds instead",
    ),
    (
        "--systems",
        "the service suite fixes its axes; tune --slots/--pipelines/--batches/--seeds instead",
    ),
    (
        "--faults",
        "the service suite fixes its axes; tune --slots/--pipelines/--batches/--seeds instead",
    ),
    (
        "--batch",
        "ambiguous with the service batching axis; use --batches (client batching) \
         — adaptive sampling is not available here",
    ),
];

/// `lab service`: run the repeated-consensus service suite and emit the
/// throughput/latency report. The report bytes are deterministic and
/// thread-count independent, like every other lab artifact.
fn service_cmd(rest: &[&str]) -> ExitCode {
    for (flag, why) in SERVICE_REFUSALS {
        if rest.contains(&flag) {
            eprintln!("{flag} is not available with `lab service`: {why}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = check_flags(rest, &SERVICE_FLAGS, &SERVICE_SWITCHES) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if let Some(name) = opt_value(rest, "--suite") {
        if name != "service" {
            eprintln!("`lab service` runs the service suite; for '{name}' use `lab run --suite`");
            return ExitCode::FAILURE;
        }
    }
    let threads: usize = match opt_value(rest, "--threads").map(str::parse) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("--threads wants a number");
            return ExitCode::FAILURE;
        }
    };
    let mut matrix = ServiceMatrix::suite();
    if let Some(seeds) = opt_value(rest, "--seeds") {
        match parse_seeds(seeds) {
            Ok(range) => matrix.seeds = range,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(slots) = opt_value(rest, "--slots") {
        match slots.parse() {
            Ok(n) if n >= 1 => matrix.slots = n,
            _ => {
                eprintln!("--slots wants a positive slot count, got '{slots}'");
                return ExitCode::FAILURE;
            }
        }
    }
    for (flag, axis) in [
        ("--pipelines", &mut matrix.pipelines),
        ("--batches", &mut matrix.batches),
    ] {
        if let Some(text) = opt_value(rest, flag) {
            match parse_list(text, "count", |s| s.parse::<u32>().ok().filter(|n| *n >= 1)) {
                Ok(values) if !values.is_empty() => *axis = values,
                _ => {
                    eprintln!("{flag} wants a comma list of positive counts, got '{text}'");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if rest.contains(&"--dry-run") {
        println!(
            "{}: {} cells ({} slot(s) each; pipelines {:?}, batches {:?}, seeds {:?})",
            matrix.name,
            matrix.len(),
            matrix.slots,
            matrix.pipelines,
            matrix.batches,
            matrix.seeds,
        );
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "service '{}': {} cells on {} worker thread(s)...",
        matrix.name,
        matrix.len(),
        worker_count(threads),
    );
    let (report, wall, timings) = run_service(&matrix, threads);
    eprintln!(
        "done in {:.3}s wall ({} cells, {} group(s), {} failure(s))",
        wall.as_secs_f64(),
        report.cells.len(),
        report.groups.len(),
        report.failures(),
    );
    let json_path = opt_value(rest, "--json").unwrap_or("lab-service.json");
    let md_path = opt_value(rest, "--md").unwrap_or("lab-service.md");
    let mut markdown = report.to_markdown();
    if rest.contains(&"--timing") {
        markdown.push('\n');
        markdown.push_str(&cell_timing_markdown(
            report
                .cells
                .iter()
                .map(|(key, _)| key.as_str())
                .zip(timings),
        ));
    }
    if let Err(e) = std::fs::write(json_path, report.to_json()) {
        eprintln!("cannot write {json_path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(md_path, &markdown) {
        eprintln!("cannot write {md_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("reports: {json_path}, {md_path}");
    print!("{markdown}");
    if report.failures() > 0 {
        eprintln!("SERVICE FAILURE: {} run(s) failed", report.failures());
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// The `--timing` appendix of `lab service` and `lab crosscheck`: per-cell
/// wall clock, slowest first. Diagnostic only — wall time never enters the
/// JSON report.
fn cell_timing_markdown<'a>(cells: impl Iterator<Item = (&'a str, Duration)>) -> String {
    use std::fmt::Write;
    let mut rows: Vec<(&str, Duration)> = cells.collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let mut out =
        String::from("## Cell timing (wall clock, slowest first)\n\n| cell | ms |\n|---|---|\n");
    for (label, wall) in rows {
        let _ = writeln!(out, "| {label} | {:.3} |", wall.as_secs_f64() * 1e3);
    }
    out
}

/// Every value-taking flag `lab crosscheck` understands (`--suite` is
/// accepted so `lab run --suite crosscheck` can delegate here with its
/// argv intact).
const CROSSCHECK_FLAGS: [&str; 6] = [
    "--suite",
    "--threads",
    "--json",
    "--md",
    "--seeds",
    "--max-steps",
];

/// `lab crosscheck` flags that take no value. `--adaptive` here selects
/// the adaptive-*adversary* grid (the sweep engine's adaptive *sampling*
/// has no meaning for agreement grading, so the flag is free).
const CROSSCHECK_SWITCHES: [&str; 4] = ["--dry-run", "--timing", "--chaos", "--adaptive"];

/// `lab run` / `lab service` surface that makes no sense for the
/// crosscheck driver, each with the reason it is refused.
const CROSSCHECK_REFUSALS: [(&str, &str); 16] = [
    (
        "--shard",
        "the crosscheck grid is small and there is no partial crosscheck report to merge; \
         run unsharded",
    ),
    (
        "--observe",
        "crosscheck grades agreement, not engine metrics; use `lab profile` for those",
    ),
    (
        "--precision",
        "adaptive sampling targets fit precision, which crosscheck reports do not compute",
    ),
    (
        "--max-seeds",
        "adaptive sampling targets fit precision, which crosscheck reports do not compute; \
         set the seed axis directly with --seeds a..b",
    ),
    (
        "--fits",
        "crosscheck reports carry agreement levels, not complexity fits",
    ),
    (
        "--fit-axis",
        "crosscheck reports carry agreement levels, not complexity fits",
    ),
    (
        "--protocols",
        "crosscheck runs *every* registered engine on every cell — \
         narrowing the protocol axis would defeat the oracle",
    ),
    (
        "--validities",
        "the crosscheck suite fixes its axes; tune --seeds/--max-steps instead",
    ),
    (
        "--behaviors",
        "the crosscheck suite fixes its axes; tune --seeds/--max-steps instead",
    ),
    (
        "--schedules",
        "the crosscheck suite fixes its axes; tune --seeds/--max-steps instead",
    ),
    (
        "--systems",
        "the crosscheck suite fixes its axes; tune --seeds/--max-steps instead",
    ),
    (
        "--faults",
        "the crosscheck suite fixes its axes; tune --seeds/--max-steps instead",
    ),
    ("--batch", "adaptive sampling is not available here"),
    (
        "--slots",
        "service pipelining does not apply to single-shot crosscheck cells",
    ),
    (
        "--pipelines",
        "service pipelining does not apply to single-shot crosscheck cells",
    ),
    (
        "--batches",
        "service batching does not apply to single-shot crosscheck cells",
    ),
];

/// `lab crosscheck`: run the differential cross-validation suite — every
/// registered engine plus the solvability classifier on identical cells —
/// grade agreement per cell, and cross-check the two report emitters
/// against each other. Exits non-zero on any DISAGREEMENT cell or emitter
/// round-trip mismatch. The report bytes are deterministic and
/// thread-count independent, like every other lab artifact.
fn crosscheck_cmd(rest: &[&str]) -> ExitCode {
    for (flag, why) in CROSSCHECK_REFUSALS {
        if rest.contains(&flag) {
            eprintln!("{flag} is not available with `lab crosscheck`: {why}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = check_flags(rest, &CROSSCHECK_FLAGS, &CROSSCHECK_SWITCHES) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if let Some(name) = opt_value(rest, "--suite") {
        if name != "crosscheck" {
            eprintln!(
                "`lab crosscheck` runs the crosscheck suite; for '{name}' use `lab run --suite`"
            );
            return ExitCode::FAILURE;
        }
    }
    let threads: usize = match opt_value(rest, "--threads").map(str::parse) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("--threads wants a number");
            return ExitCode::FAILURE;
        }
    };
    // --chaos swaps in the faulty-network grid (every ScheduleSpec::CHAOS
    // schedule), --adaptive the observing-adversary grid; the default grid
    // keeps the committed fingerprint bytes.
    if rest.contains(&"--chaos") && rest.contains(&"--adaptive") {
        eprintln!("--chaos and --adaptive select different grids; pick one per run");
        return ExitCode::FAILURE;
    }
    let mut matrix = if rest.contains(&"--chaos") {
        CrosscheckMatrix::chaos()
    } else if rest.contains(&"--adaptive") {
        CrosscheckMatrix::adaptive()
    } else {
        CrosscheckMatrix::suite()
    };
    if let Some(seeds) = opt_value(rest, "--seeds") {
        match parse_seeds(seeds) {
            Ok(range) => matrix.seeds = range,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match opt_value(rest, "--max-steps").map(str::parse) {
        None => {}
        Some(Ok(n)) => matrix.max_steps = Some(n),
        Some(Err(_)) => {
            eprintln!("--max-steps wants a number");
            return ExitCode::FAILURE;
        }
    }
    let triples = matrix.classifier_inputs().len();
    if rest.contains(&"--dry-run") {
        println!(
            "{}: {} cells ({} engine column(s) + classifier over {triples} (property, n, t); \
             seeds {:?})",
            matrix.name,
            matrix.len(),
            matrix.engines.len(),
            matrix.seeds,
        );
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "crosscheck '{}': {} cells × {} engine(s) + classifier over {triples} (property, n, t) \
         on {} worker thread(s)...",
        matrix.name,
        matrix.len(),
        matrix.engines.len(),
        worker_count(threads),
    );
    let (report, wall, (classify_wall, timings)) = run_crosscheck(&matrix, threads);
    let full = report.count(AgreementLevel::Full);
    let expected = report.count(AgreementLevel::ExpectedDivergence);
    let disagreements = report.disagreements();
    eprintln!(
        "done in {:.3}s wall ({} cells: {} full, {} expected-divergence, {} DISAGREEMENT)",
        wall.as_secs_f64(),
        report.cells.len(),
        full,
        expected,
        disagreements.len(),
    );
    let json = report.to_json();
    let mut markdown = report.to_markdown();
    // The emitters are columns of the oracle too: a drifting renderer
    // fails the gate just like a drifting engine.
    let emitter_mismatches = compare_emitted(&json, &markdown);
    if rest.contains(&"--timing") {
        markdown.push('\n');
        markdown.push_str(&cell_timing_markdown(
            report.cells.iter().map(|c| c.key.as_str()).zip(timings),
        ));
        // The cells grade against verdicts decided before they ran, so
        // the classifier phase is timed on its own line.
        markdown.push_str(&format!(
            "\nClassifier phase: {triples} (property, n, t) decided in {:.3} ms before the cells \
             ran (not in the cell times above).\n",
            classify_wall.as_secs_f64() * 1e3
        ));
    }
    let json_path = opt_value(rest, "--json").unwrap_or("lab-crosscheck.json");
    let md_path = opt_value(rest, "--md").unwrap_or("lab-crosscheck.md");
    if let Err(e) = std::fs::write(json_path, &json) {
        eprintln!("cannot write {json_path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(md_path, &markdown) {
        eprintln!("cannot write {md_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("reports: {json_path}, {md_path}");
    print!("{markdown}");
    let mut failed = false;
    if !emitter_mismatches.is_empty() {
        eprintln!(
            "CROSSCHECK FAILURE: JSON and Markdown emitters disagree ({} mismatch(es)):",
            emitter_mismatches.len()
        );
        for m in &emitter_mismatches {
            eprintln!("  {m}");
        }
        failed = true;
    }
    if !disagreements.is_empty() {
        eprintln!(
            "CROSSCHECK FAILURE: {} DISAGREEMENT cell(s):",
            disagreements.len()
        );
        for cell in &disagreements {
            eprintln!("  {}: {}", cell.key, cell.detail);
        }
        failed = true;
    }
    if failed {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Every value-taking flag `lab mutate` understands (`--suite` is
/// accepted so `lab run --suite mutate` can delegate here).
const MUTATE_FLAGS: [&str; 7] = [
    "--suite",
    "--threads",
    "--json",
    "--md",
    "--seeds",
    "--max-steps",
    "--operators",
];

/// `lab mutate` flags that take no value.
const MUTATE_SWITCHES: [&str; 1] = ["--dry-run"];

/// `lab mutate`: the fault-injection harness. Plants every mutation
/// operator into every registry engine, runs the crosscheck oracle plus
/// the validity checks over each `(engine × operator)` mutant next to the
/// clean columns, and emits the kill matrix. Exits non-zero when the gate
/// fails: a clean-baseline disagreement (false kill), an uncatalogued
/// survivor, or a stale catalogue entry. Bytes are deterministic and
/// thread-count independent, like every other lab artifact.
fn mutate_cmd(rest: &[&str]) -> ExitCode {
    if let Err(e) = check_flags(rest, &MUTATE_FLAGS, &MUTATE_SWITCHES) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if let Some(name) = opt_value(rest, "--suite") {
        if name != "mutate" {
            eprintln!("`lab mutate` runs the mutate suite; for '{name}' use `lab run --suite`");
            return ExitCode::FAILURE;
        }
    }
    let threads: usize = match opt_value(rest, "--threads").map(str::parse) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("--threads wants a number");
            return ExitCode::FAILURE;
        }
    };
    let mut matrix = MutateMatrix::suite();
    if let Some(ops) = opt_value(rest, "--operators") {
        let parsed: Result<Vec<_>, String> = ops
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                MutationOp::parse(s).ok_or_else(|| {
                    format!(
                        "unknown operator: '{s}' (valid: {})",
                        MutationOp::ALL.map(|o| o.name()).join(", ")
                    )
                })
            })
            .collect();
        match parsed {
            Ok(ops) => matrix.operators = ops,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(seeds) = opt_value(rest, "--seeds") {
        match parse_seeds(seeds) {
            Ok(range) => matrix.grid.seeds = range,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match opt_value(rest, "--max-steps").map(str::parse) {
        None => {}
        Some(Ok(n)) => matrix.grid.max_steps = Some(n),
        Some(Err(_)) => {
            eprintln!("--max-steps wants a number");
            return ExitCode::FAILURE;
        }
    }
    if rest.contains(&"--dry-run") {
        println!(
            "{}: {} cells × ({} engine(s) + {} mutant(s)) = {} runs (seeds {:?})",
            matrix.grid.name,
            matrix.grid.len(),
            matrix.grid.engines.len(),
            matrix.mutants().len(),
            matrix.len(),
            matrix.grid.seeds,
        );
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "mutate '{}': {} cells × ({} engine(s) + {} mutant(s)) on {} worker thread(s)...",
        matrix.grid.name,
        matrix.grid.len(),
        matrix.grid.engines.len(),
        matrix.mutants().len(),
        worker_count(threads),
    );
    let (report, wall) = run_mutate(&matrix, threads);
    eprintln!(
        "done in {:.3}s wall ({} mutant(s): {} killed, {} survived; {} baseline false kill(s))",
        wall.as_secs_f64(),
        report.fates.len(),
        report.killed(),
        report.fates.len() - report.killed(),
        report.false_kills.len(),
    );
    let json_path = opt_value(rest, "--json").unwrap_or("lab-mutate.json");
    let md_path = opt_value(rest, "--md").unwrap_or("lab-mutate.md");
    if let Err(e) = std::fs::write(json_path, report.to_json()) {
        eprintln!("cannot write {json_path}: {e}");
        return ExitCode::FAILURE;
    }
    let markdown = report.to_markdown();
    if let Err(e) = std::fs::write(md_path, &markdown) {
        eprintln!("cannot write {md_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("reports: {json_path}, {md_path}");
    print!("{markdown}");
    if let Err(e) = report.gate(CATALOGUED_EQUIVALENT) {
        eprintln!("MUTATE FAILURE: {e}");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Writes a full report's JSON and Markdown files and echoes the Markdown
/// (rendered once) to stdout — the shared tail of `lab run` and
/// `lab merge`.
fn emit_reports(report: &SweepReport, json_path: &str, md_path: &str) -> ExitCode {
    emit_reports_with(report, json_path, md_path, None)
}

/// [`emit_reports`], optionally appending an extra Markdown section (the
/// `--timing` table) to the Markdown file and stdout.
fn emit_reports_with(
    report: &SweepReport,
    json_path: &str,
    md_path: &str,
    extra_md: Option<&str>,
) -> ExitCode {
    let mut markdown = report.to_markdown();
    if let Some(extra) = extra_md {
        markdown.push('\n');
        markdown.push_str(extra);
    }
    if let Err(e) = std::fs::write(json_path, report.to_json()) {
        eprintln!("cannot write {json_path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(md_path, &markdown) {
        eprintln!("cannot write {md_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("reports: {json_path}, {md_path}");
    print!("{markdown}");
    ExitCode::SUCCESS
}

/// `lab run --shard i/m`: execute one deterministic slice of the matrix
/// and write a partial report for `lab merge` to recombine. Partials are
/// machine-facing merge inputs, so only JSON is emitted (`--md` is
/// rejected rather than silently ignored).
fn run_shard(rest: &[&str], matrix: &ScenarioMatrix, shard: ShardSpec, threads: usize) -> ExitCode {
    if opt_value(rest, "--md").is_some() {
        eprintln!("--md is not available with --shard: merge the partials first");
        return ExitCode::FAILURE;
    }
    let engine = SweepEngine::new(threads);
    match matrix.sampling {
        Some(_) => eprintln!(
            "sweep '{}' shard {}: adaptive over {} of {} work unit(s) on {} worker thread(s)...",
            matrix.name,
            shard,
            matrix.shard_units(shard).len(),
            matrix.work_units().len(),
            engine.threads()
        ),
        None => eprintln!(
            "sweep '{}' shard {}: {} of {} cells on {} worker thread(s)...",
            matrix.name,
            shard,
            matrix.shard_cells(shard).len(),
            matrix.len(),
            engine.threads()
        ),
    }
    let sweep = engine.execute_shard(matrix, shard);
    let partial = PartialReport::new(
        matrix.clone(),
        shard,
        sweep.wall.as_secs_f64(),
        sweep.records,
    );
    eprintln!(
        "done in {:.3}s wall ({} cells)",
        partial.wall_seconds,
        partial.records.len(),
    );
    let json_path = opt_value(rest, "--json")
        .map(String::from)
        .unwrap_or_else(|| {
            format!(
                "lab-{}-shard{}of{}.json",
                matrix.name, shard.index, shard.count
            )
        });
    if let Err(e) = std::fs::write(&json_path, partial.to_json()) {
        eprintln!("cannot write {json_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("partial report: {json_path}");
    ExitCode::SUCCESS
}

/// `lab merge`: recombine all `m` partials of a sharded sweep into the
/// full report — byte-identical to what a single unsharded process would
/// have written.
fn merge_cmd(rest: &[&str]) -> ExitCode {
    let mut paths: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        match rest[i] {
            "--json" | "--md" if i + 1 < rest.len() => i += 2,
            arg if arg.starts_with("--") => {
                eprintln!("usage: lab merge <partial.json>... [--json FILE] [--md FILE]");
                return ExitCode::FAILURE;
            }
            path => {
                paths.push(path);
                i += 1;
            }
        }
    }
    if paths.is_empty() {
        eprintln!("usage: lab merge <partial.json>... [--json FILE] [--md FILE]");
        return ExitCode::FAILURE;
    }
    let partials: Result<Vec<PartialReport>, String> = paths
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            PartialReport::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect();
    let partials = match partials {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (report, matrix) = match merge(&partials) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("merge failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "merged {} partial(s): {} cells, {} violations, {} quarantined, {} fit(s) out of band",
        partials.len(),
        report.cells.len(),
        report.violations(),
        report.quarantined.len(),
        report.fits_out_of_band(),
    );
    let json_path = opt_value(rest, "--json")
        .map(String::from)
        .unwrap_or_else(|| format!("lab-{}.json", matrix.name));
    let md_path = opt_value(rest, "--md")
        .map(String::from)
        .unwrap_or_else(|| format!("lab-{}.md", matrix.name));
    emit_reports(&report, &json_path, &md_path)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Refuses to diff anything that is not a same-generation full report: a
/// partial (sharded) report would diff as a wall of spurious only-in-one
/// cells, and a future schema generation could differ in ways the cell
/// comparison does not see. Both get a clear error instead.
///
/// A schema-less document is accepted only when it at least carries a
/// `cells` array — i.e. looks like a full report from before the schema
/// field existed. Without that check, two arbitrary JSON files would
/// "diff" as a spurious zero-cell match.
fn check_diffable(path: &str, v: &Json) -> Result<(), String> {
    let declared = v.get("schema").and_then(Json::as_str);
    if declared.is_none() && v.get("cells").and_then(Json::as_arr).is_none() {
        return Err(format!(
            "{path} does not look like a lab report (no 'schema' tag and no \
             'cells' section)"
        ));
    }
    let schema = declared.unwrap_or(REPORT_SCHEMA);
    if schema == PARTIAL_SCHEMA || schema == PARTIAL_SCHEMA_V1 {
        let part = v
            .get("shard")
            .map(|s| {
                format!(
                    " (shard {}/{})",
                    s.get("index").and_then(Json::as_u64).unwrap_or(0),
                    s.get("count").and_then(Json::as_u64).unwrap_or(0),
                )
            })
            .unwrap_or_default();
        return Err(format!(
            "{path} is a partial (sharded) report{part}: run `lab merge` on all \
             shards first, then diff the merged report"
        ));
    }
    if schema != REPORT_SCHEMA {
        return Err(format!(
            "{path} declares schema '{schema}', which this lab does not read \
             (expected '{REPORT_SCHEMA}'): schema-version mismatch"
        ));
    }
    Ok(())
}

fn diff(rest: &[&str]) -> ExitCode {
    let [a_path, b_path] = rest else {
        eprintln!("usage: lab diff <a.json> <b.json>");
        return ExitCode::FAILURE;
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Two *full* reports from different schema generations mismatch each
    // other — say so directly (naming both tags) before the per-file check
    // reduces it to "unknown schema" on whichever side is foreign.
    fn tag_of(v: &Json) -> Option<&str> {
        v.get("schema").and_then(Json::as_str)
    }
    if let (Some(ta), Some(tb)) = (tag_of(&a), tag_of(&b)) {
        let full = |t: &str| t.starts_with("validity-lab/report@");
        if ta != tb && full(ta) && full(tb) {
            eprintln!(
                "schema-version mismatch: {a_path} is '{ta}' but {b_path} is '{tb}': \
                 reports from different schema generations cannot be diffed — \
                 regenerate both with one lab version"
            );
            return ExitCode::FAILURE;
        }
    }
    for (path, v) in [(a_path, &a), (b_path, &b)] {
        if let Err(e) = check_diffable(path, v) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    // Index both reports by cell key once; the comparison is then linear.
    fn cells_of(v: &Json) -> &[Json] {
        v.get("cells").and_then(Json::as_arr).unwrap_or(&[])
    }
    fn key_of(c: &Json) -> &str {
        c.get("key").and_then(Json::as_str).unwrap_or("?")
    }
    let (ca, cb) = (cells_of(&a), cells_of(&b));
    let index_a: std::collections::BTreeMap<&str, &Json> =
        ca.iter().map(|c| (key_of(c), c)).collect();
    let index_b: std::collections::BTreeMap<&str, &Json> =
        cb.iter().map(|c| (key_of(c), c)).collect();
    let mut differences = 0usize;
    for cell_a in ca {
        let key = key_of(cell_a);
        match index_b.get(key) {
            None => {
                println!("- {key}: only in {a_path}");
                differences += 1;
            }
            Some(cell_b) if cell_a != *cell_b => {
                println!("~ {key}: differs");
                differences += 1;
            }
            Some(_) => {}
        }
    }
    for cell_b in cb {
        let key = key_of(cell_b);
        if !index_a.contains_key(key) {
            println!("+ {key}: only in {b_path}");
            differences += 1;
        }
    }
    if differences == 0 {
        println!(
            "identical: {} cells match across {a_path} and {b_path}",
            ca.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("{differences} difference(s)");
        ExitCode::from(1)
    }
}

/// `lab trend`: assemble the bench-trend artifact — by sweeping fit-bearing
/// suites (default) or from already-merged full reports (`--from-reports`,
/// the sharded CI path) — write it to `--out`, and gate:
///
/// * always: fail if any fitted exponent left its declared band or any
///   cell misbehaved (violations / quarantine);
/// * with `--baseline FILE`: additionally diff the fresh artifact against
///   the historical one and fail on regressions (exponent drift beyond
///   `--tolerance`, band escapes, vanished fit groups) — CI gates on
///   history, not just static bands.
///
/// Wall time is deliberately kept *out* of `lab run` reports (they are
/// byte-deterministic); the trend artifact is the one place it belongs.
/// Artifacts assembled with `--from-reports` carry `wall_seconds: null`.
fn trend(rest: &[&str]) -> ExitCode {
    const TREND_FLAGS: [&str; 6] = [
        "--suites",
        "--threads",
        "--out",
        "--baseline",
        "--tolerance",
        "--from-reports",
    ];
    const TREND_SWITCHES: [&str; 1] = ["--update-baseline"];
    let mut i = 0;
    while i < rest.len() {
        if TREND_SWITCHES.contains(&rest[i]) {
            i += 1;
            continue;
        }
        if !TREND_FLAGS.contains(&rest[i]) || i + 1 >= rest.len() {
            eprintln!(
                "usage: lab trend [--suites a,b,.. | --from-reports a.json,b.json]\n\
                 \x20               [--threads N] [--out FILE] [--baseline FILE] [--tolerance X]\n\
                 \x20               [--update-baseline]"
            );
            return ExitCode::FAILURE;
        }
        i += 2;
    }
    let threads: usize = match opt_value(rest, "--threads").map(str::parse) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("--threads wants a number");
            return ExitCode::FAILURE;
        }
    };
    // `f64::from_str` happily parses "nan"/"inf"; a NaN tolerance would
    // silently disable the drift gate (NaN comparisons are all false), so
    // anything non-finite or negative is rejected up front.
    let tolerance: f64 = match opt_value(rest, "--tolerance").map(str::parse) {
        None => 0.25,
        Some(Ok(x)) if x >= 0.0 && f64::is_finite(x) => x,
        Some(_) => {
            eprintln!("--tolerance wants a finite non-negative number");
            return ExitCode::FAILURE;
        }
    };
    let out_path = opt_value(rest, "--out").unwrap_or("BENCH_lab.json");

    let artifact = match opt_value(rest, "--from-reports") {
        Some(_) if opt_value(rest, "--suites").is_some() => {
            eprintln!("--from-reports and --suites are mutually exclusive");
            return ExitCode::FAILURE;
        }
        Some(paths) => {
            let mut suites_out = Vec::new();
            for path in paths.split(',').filter(|s| !s.is_empty()) {
                let v = match load(path) {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                if let Err(e) = check_diffable(path, &v) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                match BenchSuite::from_report_json(&v) {
                    Ok(s) => {
                        eprintln!(
                            "trend: report '{path}' ({} = {} cells, {} fit rows)",
                            s.suite,
                            s.cells,
                            s.fits.len()
                        );
                        suites_out.push(s);
                    }
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if suites_out.is_empty() {
                eprintln!("--from-reports wants at least one report file");
                return ExitCode::FAILURE;
            }
            BenchArtifact { suites: suites_out }
        }
        None => {
            let names: Vec<&str> = opt_value(rest, "--suites")
                .unwrap_or("complexity,universal")
                .split(',')
                .filter(|s| !s.is_empty())
                .collect();
            let engine = SweepEngine::new(threads);
            let mut suites_out = Vec::new();
            for name in names {
                let Some(matrix) = suites::build(name) else {
                    eprintln!("unknown suite '{name}'; see `lab list`");
                    return ExitCode::FAILURE;
                };
                eprintln!("trend: sweeping '{name}' ({} cells)...", matrix.len());
                let (report, sweep) = engine.run(&matrix);
                for f in &report.fits {
                    eprintln!(
                        "  {} {}: exponent {} (band {})",
                        f.key,
                        f.measure,
                        f.fit
                            .map_or("unfittable".to_string(), |p| format!("{:.3}", p.exponent)),
                        match f.band {
                            Some((lo, hi)) => format!("[{lo}, {hi}]"),
                            None => "-".to_string(),
                        },
                    );
                }
                suites_out.push(BenchSuite::from_sweep(
                    name,
                    &report,
                    Some(sweep.wall.as_secs_f64()),
                ));
            }
            BenchArtifact { suites: suites_out }
        }
    };

    if let Err(e) = std::fs::write(out_path, artifact.to_json()) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("trend artifact: {out_path}");

    let mut failed = false;
    let out_of_band: u64 = artifact
        .suites
        .iter()
        .flat_map(|s| &s.fits)
        .filter(|f| f.within_band == Some(false))
        .count() as u64;
    let violations: u64 = artifact.suites.iter().map(|s| s.violations).sum();
    if out_of_band > 0 || violations > 0 {
        eprintln!(
            "TREND FAILURE: {out_of_band} fitted exponent(s) out of band, \
             {violations} violation(s)"
        );
        failed = true;
    }
    if rest.contains(&"--update-baseline") {
        // Regenerate the committed baseline in place (same deterministic
        // schema tag and key order, so the diff is reviewable) instead of
        // comparing against it — the workflow after an *intentional* perf
        // change. A sweep that fails its own bands must not become
        // history.
        let baseline_path = opt_value(rest, "--baseline").unwrap_or("ci/BENCH_lab_baseline.json");
        if failed {
            eprintln!("baseline NOT updated: the sweep fails its own gates");
            return ExitCode::from(1);
        }
        if let Err(e) = std::fs::write(baseline_path, artifact.to_json()) {
            eprintln!("cannot write {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("baseline updated: {baseline_path}");
        return ExitCode::SUCCESS;
    }
    if let Some(baseline_path) = opt_value(rest, "--baseline") {
        let text = match std::fs::read_to_string(baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match BenchArtifact::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let diff = compare(&artifact, &baseline, tolerance);
        print!("{}", diff.render_markdown());
        if diff.regressions() > 0 {
            eprintln!(
                "TREND FAILURE: {} regression(s) vs baseline {baseline_path}",
                diff.regressions()
            );
            failed = true;
        }
    }
    if failed {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// `lab profile`: run a suite with the metrics probe attached and print
/// where the sweep spends its effort — phase wall-clock breakdown, the
/// top-k hottest cells by simulator events and by wall time, and
/// queue/slab occupancy summaries. With `--timeline BASE`, additionally
/// exports the hottest cell (or `--cell LABEL`) as `BASE.jsonl` and
/// `BASE.trace.json` (Chrome `chrome://tracing` / Perfetto format).
fn profile(rest: &[&str]) -> ExitCode {
    const PROFILE_FLAGS: [&str; 6] = [
        "--suite",
        "--threads",
        "--top",
        "--out",
        "--timeline",
        "--cell",
    ];
    let mut i = 0;
    while i < rest.len() {
        if !PROFILE_FLAGS.contains(&rest[i]) || i + 1 >= rest.len() {
            eprintln!(
                "usage: lab profile --suite <name> [--threads N] [--top K] [--out FILE]\n\
                 \x20                 [--timeline BASE] [--cell LABEL]"
            );
            return ExitCode::FAILURE;
        }
        i += 2;
    }
    let Some(name) = opt_value(rest, "--suite") else {
        eprintln!("lab profile wants --suite <name>; see `lab list`");
        return ExitCode::FAILURE;
    };
    let threads: usize = match opt_value(rest, "--threads").map(str::parse) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("--threads wants a number");
            return ExitCode::FAILURE;
        }
    };
    let top: usize = match opt_value(rest, "--top").map(str::parse) {
        None => 10,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => {
            eprintln!("--top wants a positive count");
            return ExitCode::FAILURE;
        }
    };
    let Some(matrix) = suites::build(name) else {
        eprintln!("unknown suite '{name}'; see `lab list`");
        return ExitCode::FAILURE;
    };

    let start = Instant::now();
    let cells = matrix.len();
    let units = matrix.work_units().len();
    let enumerate = start.elapsed();
    let engine = SweepEngine::new(threads).observe(true);
    eprintln!(
        "profile '{name}': {cells} cell(s) / {units} work unit(s) on {} worker thread(s)...",
        engine.threads()
    );
    let run_start = Instant::now();
    let (_report, sweep) = engine.run(&matrix);
    // The sweep's own wall clock is the execute phase; everything else of
    // `run` (record collection, aggregation, fitting) is the aggregate
    // phase.
    let aggregate = run_start.elapsed().saturating_sub(sweep.wall);
    let phases = [
        ("enumerate", enumerate),
        ("execute", sweep.wall),
        ("aggregate", aggregate),
    ];
    let md = profile_markdown(name, &phases, &sweep.timings, &sweep.observed, top);
    if let Some(out_path) = opt_value(rest, "--out") {
        if let Err(e) = std::fs::write(out_path, &md) {
            eprintln!("cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("profile: {out_path}");
    }
    print!("{md}");

    if let Some(base) = opt_value(rest, "--timeline") {
        let label = match opt_value(rest, "--cell") {
            Some(label) => label.to_string(),
            None => match hottest_by_events(&sweep.observed) {
                Some(hot) => hot.label.clone(),
                None => {
                    eprintln!("nothing to export: the suite observed no run cells");
                    return ExitCode::from(1);
                }
            },
        };
        let Some(timeline) = timeline_for(&matrix, &label) else {
            eprintln!(
                "no timeline for '{label}': not a run cell of this suite \
                 (classification cells have no event timeline)"
            );
            return ExitCode::from(1);
        };
        let jsonl_path = format!("{base}.jsonl");
        let trace_path = format!("{base}.trace.json");
        for (path, text) in [
            (&jsonl_path, timeline.to_jsonl()),
            (&trace_path, timeline.to_chrome_trace()),
        ] {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("timeline ({label}): {jsonl_path}, {trace_path}");
    }
    ExitCode::SUCCESS
}

/// `lab perf`: gate a measured artifact against its committed baseline,
/// dispatching on the artifact's schema tag:
///
/// * `validity-simnet/bench@1` (from the `perf_smoke` example): engine
///   events/sec — wall-clock rates, default tolerance 0.5, default
///   baseline `ci/BENCH_simnet_baseline.json`.
/// * `validity-lab/service-bench@1` (from the `service_smoke` example):
///   service decisions/sec — *simulated-time* rates, deterministic, so
///   the default tolerance is 0.0 and any drop gates; default baseline
///   `ci/BENCH_service_baseline.json`.
///
/// Either path fails on slowdowns beyond `--tolerance`, determinism
/// drift, and vanished coverage. `--update-baseline` instead rewrites the
/// baseline from the current artifact — the deliberate-refresh path after
/// an intentional change.
fn perf(rest: &[&str]) -> ExitCode {
    const PERF_FLAGS: [&str; 3] = ["--bench", "--baseline", "--tolerance"];
    const PERF_SWITCHES: [&str; 1] = ["--update-baseline"];
    let mut i = 0;
    while i < rest.len() {
        if PERF_SWITCHES.contains(&rest[i]) {
            i += 1;
            continue;
        }
        if !PERF_FLAGS.contains(&rest[i]) || i + 1 >= rest.len() {
            eprintln!(
                "usage: lab perf [--bench FILE] [--baseline FILE] [--tolerance X]\n\
                 \x20              [--update-baseline]"
            );
            return ExitCode::FAILURE;
        }
        i += 2;
    }
    // Same non-finite guard as `lab trend`: a NaN tolerance would make
    // every slowdown comparison false and silently disarm the gate.
    let tolerance_flag: Option<f64> = match opt_value(rest, "--tolerance").map(str::parse) {
        None => None,
        Some(Ok(x)) if x >= 0.0 && f64::is_finite(x) => Some(x),
        Some(_) => {
            eprintln!("--tolerance wants a finite non-negative number");
            return ExitCode::FAILURE;
        }
    };
    let bench_path = opt_value(rest, "--bench").unwrap_or("BENCH_simnet.json");
    let bench_text = match std::fs::read_to_string(bench_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!(
                "cannot read {bench_path}: {e}\n(produce it with: cargo run --release \
                 -p validity-simnet --example perf_smoke -- {bench_path})"
            );
            return ExitCode::FAILURE;
        }
    };
    // Dispatch on the artifact's own schema tag, so `lab perf --bench
    // BENCH_service.json --baseline ci/BENCH_service_baseline.json` gates
    // service throughput with the same command surface.
    let schema_tag = Json::parse(&bench_text)
        .ok()
        .and_then(|v| v.get("schema").and_then(Json::as_str).map(str::to_string));
    if schema_tag.as_deref() == Some(SERVICE_BENCH_SCHEMA) {
        return perf_service(rest, bench_path, &bench_text, tolerance_flag);
    }
    let tolerance = tolerance_flag.unwrap_or(0.5);
    let baseline_path = opt_value(rest, "--baseline").unwrap_or("ci/BENCH_simnet_baseline.json");
    let current = match SimnetBench::parse(&bench_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{bench_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if rest.contains(&"--update-baseline") {
        // Re-emit through the canonical renderer (not a byte copy) so the
        // committed baseline always has the one reviewable layout, whatever
        // produced the input.
        if let Err(e) = std::fs::write(baseline_path, current.to_json()) {
            eprintln!("cannot write {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("baseline updated: {baseline_path}");
        return ExitCode::SUCCESS;
    }
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(text) => match SimnetBench::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("cannot read {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if current.workload != baseline.workload {
        eprintln!(
            "PERF FAILURE: workload mismatch — current '{}' vs baseline '{}': \
             the artifacts measure different things",
            current.workload, baseline.workload
        );
        return ExitCode::from(1);
    }
    let diff = compare_simnet(&current, &baseline, tolerance);
    print!("{}", diff.render_markdown());
    if diff.regressions() > 0 {
        eprintln!(
            "PERF FAILURE: {} regression(s) vs baseline {baseline_path}",
            diff.regressions()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// The service-bench branch of [`perf`]: gates simulated decisions/sec
/// per report group against `ci/BENCH_service_baseline.json`. The rates
/// are deterministic, so the default tolerance is zero.
fn perf_service(
    rest: &[&str],
    bench_path: &str,
    bench_text: &str,
    tolerance_flag: Option<f64>,
) -> ExitCode {
    let tolerance = tolerance_flag.unwrap_or(0.0);
    let baseline_path = opt_value(rest, "--baseline").unwrap_or("ci/BENCH_service_baseline.json");
    let current = match ServiceBench::parse(bench_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{bench_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if rest.contains(&"--update-baseline") {
        // Re-emit through the canonical renderer, which also drops the
        // advisory wall-clock fields — the committed baseline carries
        // only the deterministic core.
        if let Err(e) = std::fs::write(baseline_path, current.to_json()) {
            eprintln!("cannot write {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("baseline updated: {baseline_path}");
        return ExitCode::SUCCESS;
    }
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(text) => match ServiceBench::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("cannot read {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if current.suite != baseline.suite {
        eprintln!(
            "PERF FAILURE: suite mismatch — current '{}' vs baseline '{}': \
             the artifacts measure different things",
            current.suite, baseline.suite
        );
        return ExitCode::from(1);
    }
    let diff = compare_service(&current, &baseline, tolerance);
    print!("{}", diff.render_markdown());
    if diff.regressions() > 0 {
        eprintln!(
            "PERF FAILURE: {} regression(s) vs baseline {baseline_path}",
            diff.regressions()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
