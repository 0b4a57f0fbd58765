//! `labbench` — the validity lab's benchmark.
//!
//! ```text
//! labbench --workload <sweep|oracle|mutate> [--seed N] [--seconds S] [--trace 0|1]
//! labbench --workload <name> --record A..B
//! ```
//!
//! One process runs one workload on a fixed worker count, through the same
//! public entry points the `lab` subcommands call, for `--seconds` seconds
//! of repeated passes. Every pass's outputs are checked, and the last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` reports the end-to-end metrics: medians over passes, with
//!   the times scaled to nominal host speed by a reference kernel timed
//!   between the passes (see `calib`).
//! * `--trace 1` spends half the time on untraced passes and half on traced
//!   passes that re-drive the same cells from outside with a span around
//!   every call into a layer, then reports the per-layer metrics and writes
//!   the spans to `.bench_trace/`.
//! * `--record A..B` prints the report fingerprints for seeds `A..B` in the
//!   format of `expected.tsv`.
//!
//! The exit code is 0 when every check passed, 1 when a cell broke its bar
//! or a report missed its recorded fingerprint, and 2 on a usage error or
//! when deterministic counts differ between passes (nothing is reported
//! then).

mod calib;
mod plan;
mod probes;
mod spans;
mod sys;
mod traced;

use std::fmt::Write as _;
use std::ops::Range;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use validity_lab::SweepEngine;

use plan::{Expected, PassOut, Report, Workload};
use spans::Recorder;
use sys::median;
use traced::TracedPass;

/// Worker threads of every timed pass (fewer on a machine with fewer
/// cores). Fixed so that runs on machines of different sizes compare.
const WORKERS: usize = 2;

/// Set-up-only processes after each timed pass; `setup_s` is the median
/// set-up over these and every timed pass. Each of them then times the
/// reference kernel. Spreading them over the run exposes them to the same
/// machine conditions as the passes.
const SETUPS_PER_PASS: usize = 4;

/// Fewest timed passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Fewest traced passes per traced run: two, so their counts can be
/// compared with each other.
const MIN_TRACED: usize = 2;

enum Mode {
    Bench,
    Record(Range<u64>),
    ChildPass(usize),
    ChildSetup,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut mode = Mode::Bench;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--child-setup" {
            mode = Mode::ChildSetup;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("option '{flag}' wants a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload '{value}' (want sweep, oracle or mutate)")
                })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got '{value}'")),
                }
            }
            "--record" => {
                let range = value
                    .split_once("..")
                    .and_then(|(a, b)| Some(a.parse().ok()?..b.parse().ok()?))
                    .ok_or_else(|| format!("--record wants a seed range A..B, got '{value}'"))?;
                mode = Mode::Record(range);
            }
            "--child-pass" => mode = Mode::ChildPass((number()? as usize).max(1)),
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
        mode,
    })
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("labbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::ChildSetup => {
            std::hint::black_box(plan::build(args.workload, args.seed));
            let setup = t0.elapsed().as_secs_f64();
            println!("SETUP {setup} {}", calib::reference_s());
            return ExitCode::SUCCESS;
        }
        Mode::ChildPass(w) => {
            print!(
                "{}",
                plan::run_pass(args.workload, args.seed, w, t0).to_lines()
            );
            return ExitCode::SUCCESS;
        }
        Mode::Record(_) | Mode::Bench => {}
    }
    // Looked up only here: it reads cgroup files, which a child's set-up
    // must not pay for.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = WORKERS.min(nproc);
    if let Mode::Record(seeds) = &args.mode {
        return record(args.workload, seeds.clone(), workers);
    }
    match bench(&args, workers, nproc) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("labbench: refusing to report: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--record`: one pass per seed, printed as fingerprint lines.
fn record(workload: Workload, seeds: Range<u64>, workers: usize) -> ExitCode {
    let mut failed = 0;
    for seed in seeds {
        let pass = plan::run_pass(workload, seed, workers, Instant::now());
        let bad: u64 = pass.reports.iter().map(|r| r.failed).sum();
        if bad > 0 {
            eprintln!("seed {seed}: {bad} cell(s) broke their bar");
            failed += bad;
        }
        print!("{}", Expected::lines(workload, seed, &pass.reports));
    }
    if failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs this program again as a child with `extra` arguments, waits for
/// it, and returns its standard output.
fn child(args: &Args, extra: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let seed = args.seed.to_string();
    let out = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed", &seed])
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("a child pass exited with {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|_| "a child pass printed non-UTF-8".to_string())
}

/// One untraced pass in a fresh process, as a `lab` subcommand runs.
fn child_pass(args: &Args, workers: usize) -> Result<PassOut, String> {
    PassOut::parse(&child(args, &["--child-pass", &workers.to_string()])?)
}

/// Runs passes until `budget` would be exceeded by one more, at least
/// `min` of them.
fn repeat<T>(
    budget: Duration,
    min: usize,
    wall: impl Fn(&T) -> Duration,
    mut pass: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let started = Instant::now();
    let mut out: Vec<T> = Vec::new();
    loop {
        out.push(pass(out.len())?);
        let walls: Vec<f64> = out.iter().map(|p| wall(p).as_secs_f64()).collect();
        let next = Duration::from_secs_f64(median(&walls));
        if out.len() >= min && started.elapsed() + next > budget {
            return Ok(out);
        }
    }
}

/// The fingerprint, cell count, failures and count digest of each report,
/// which every pass of one seed must reproduce exactly.
fn deterministic(reports: &[Report]) -> Vec<(&str, &str, u64, u64, &str)> {
    reports
        .iter()
        .map(|r| {
            (
                r.name.as_str(),
                r.sha256.as_str(),
                r.units,
                r.failed,
                r.counts.as_str(),
            )
        })
        .collect()
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn bench(args: &Args, workers: usize, nproc: usize) -> Result<ExitCode, String> {
    let w = args.workload;
    let seconds = Duration::from_secs(args.seconds);
    println!(
        "labbench: workload {} seed {} for {} s, {workers} worker(s) (nproc {nproc}), trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // One worker first: every later pass must reproduce its outputs.
    let guard = child_pass(args, 1)?;
    // Each timed pass is followed by set-ups on their own, in fresh
    // processes: from entering `main` to the moment the first cell would
    // be dispatched. Each also times the reference kernel.
    let mut setups = Vec::new();
    let mut references = Vec::new();
    let untraced_budget = if args.trace { seconds / 2 } else { seconds };
    let passes = repeat(
        untraced_budget,
        MIN_PASSES,
        |p: &PassOut| p.wall,
        |_| {
            let pass = child_pass(args, workers)?;
            let mut after = Vec::with_capacity(SETUPS_PER_PASS);
            for _ in 0..SETUPS_PER_PASS {
                let line = child(args, &["--child-setup"])?;
                let (setup, reference) = line
                    .strip_prefix("SETUP ")
                    .and_then(|t| t.trim().split_once(' '))
                    .and_then(|(a, b)| Some((a.parse::<f64>().ok()?, b.parse::<f64>().ok()?)))
                    .ok_or("a set-up child printed no SETUP line")?;
                setups.push(setup);
                after.push(reference);
            }
            references.push(after);
            Ok(pass)
        },
    )?;
    for p in &passes {
        if deterministic(&p.reports) != deterministic(&guard.reports) {
            return Err(format!(
                "a pass on {workers} worker(s) differs from the pass on 1 worker"
            ));
        }
    }
    setups.extend(passes.iter().map(|p| p.setup.as_secs_f64()));

    let expected = Expected::shipped();
    let pinned = expected.covers(w, args.seed);
    let mismatches = expected.mismatches(w, args.seed, &guard.reports);
    for m in &mismatches {
        println!("FINGERPRINT MISMATCH {m}");
    }
    let per_pass_failed: u64 = guard
        .reports
        .iter()
        .map(|r| {
            if mismatches
                .iter()
                .any(|m| m.starts_with(&format!("{}:", r.name)))
            {
                r.units
            } else {
                r.failed
            }
        })
        .sum();
    let pass_count = passes.len() as u64 + 1;
    let mut attempted = guard.units * pass_count;
    let mut failed = per_pass_failed * pass_count;

    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let wall = median(&walls);
    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    if args.trace {
        let traced = traced_run(args, workers, &guard, wall, &mut put)?;
        attempted += traced.0;
        failed += traced.1;
    } else {
        let all: Vec<f64> = references.concat();
        let reference = median(&all);
        println!(
            "host speed: reference kernel {:.2} ms (median of {}) against {:.2} ms nominal",
            reference * 1e3,
            all.len(),
            calib::NOMINAL_S * 1e3,
        );
        let cpu: Vec<f64> = passes.iter().map(|p| p.cpu.as_secs_f64()).collect();
        let timed = [
            (
                "wall_s",
                wall,
                median(&calib::per_pass(&walls, &references)),
            ),
            (
                "cpu_s",
                median(&cpu),
                median(&calib::per_pass(&cpu, &references)),
            ),
            (
                "setup_s",
                median(&setups),
                calib::calibrated(median(&setups), reference),
            ),
        ];
        for (name, raw, value) in timed {
            println!("  {name} measured {raw} s, calibrated {value} s");
            put(name, value, "s");
        }
        let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
        put("peak_rss_mb", median(&rss), "MB");
    }

    println!(
        "passes: {} timed + 1 guard on 1 worker, each in a fresh process; {} set-up(s); {} cell(s) per pass; fingerprints {}",
        passes.len(),
        setups.len(),
        guard.units,
        if pinned {
            "checked against expected.tsv"
        } else {
            "not recorded for this seed (checked across passes only)"
        }
    );
    println!(
        "failed_frac = {} ratio ({failed} of {attempted} cells broke their bar)",
        failed as f64 / attempted as f64
    );
    match guard.svc_decisions_per_sim_s {
        Some(svc) => println!("svc_decisions_per_sim_s = {svc} decisions/sim_s"),
        None => println!("svc_decisions_per_sim_s = 0 decisions/sim_s (no service cells)"),
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        println!("{} = {} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The traced half of a `--trace 1` run: traced passes, the observed
/// re-execution, the unit-cost probes, the per-layer metrics and the span
/// file. Returns the cells it attempted and the ones that broke their bar.
fn traced_run(
    args: &Args,
    workers: usize,
    guard: &PassOut,
    untraced_wall: f64,
    put: &mut impl FnMut(&str, f64, &'static str),
) -> Result<(u64, u64), String> {
    let w = args.workload;
    let rec = Recorder::new();
    let budget = Duration::from_secs(args.seconds) / 2;
    let traced = repeat(
        budget,
        MIN_TRACED,
        |p: &TracedPass| p.wall,
        |i| Ok(traced::traced_pass(&rec, i as u32, w, args.seed, workers)),
    )?;

    // The traced passes must reproduce the untraced outputs and each other.
    let first = &traced[0];
    for t in &traced {
        if t.tally.counts != first.tally.counts {
            return Err("deterministic counts differ between traced passes".into());
        }
    }
    for r in &first.reports {
        let Some(u) = guard.reports.iter().find(|u| u.name == r.name) else {
            return Err(format!(
                "traced pass built a report '{}' the untraced one did not",
                r.name
            ));
        };
        if (&r.sha256, &r.counts) != (&u.sha256, &u.counts) {
            return Err(format!(
                "traced report '{}' differs from the untraced one",
                r.name
            ));
        }
    }
    if first.false_kills != guard.false_kills {
        return Err("traced kill-matrix baseline differs from the untraced one".into());
    }

    // The observed re-execution on one worker: same records, plus the
    // simulator's queue and slab high-water marks.
    let (mut queue_hw, mut slab_hw) = (0u64, 0u64);
    let mut at = 0;
    while at < first.runs.len() {
        let budget = first.runs[at].1;
        let len = first.runs[at..]
            .iter()
            .take_while(|r| r.1 == budget)
            .count();
        let specs: Vec<_> = first.runs[at..at + len]
            .iter()
            .map(|r| r.0.clone())
            .collect();
        let (records, _, _, observed) = SweepEngine::new(1)
            .observe(true)
            .execute_cells(&specs, budget);
        if records
            .iter()
            .ne(first.runs[at..at + len].iter().map(|r| &r.2))
        {
            return Err(
                "the observed re-execution on 1 worker differs from the traced pass".into(),
            );
        }
        for o in &observed {
            queue_hw = queue_hw.max(o.metrics.queue_high_water);
            slab_hw = slab_hw.max(o.metrics.slab_high_water);
        }
        at += len;
    }

    let all_spans = rec.spans();
    let path = format!(".bench_trace/{}-s{}.spans.jsonl", w.name(), args.seed);
    std::fs::create_dir_all(".bench_trace")
        .and_then(|()| std::fs::write(&path, spans::to_jsonl(&all_spans)))
        .map_err(|e| format!("cannot write {path}: {e}"))?;

    let med = |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let t = &first.tally;
    put(
        "core.classify.calls",
        t.count("core.classify.calls") as f64,
        "count",
    );
    put(
        "core.classify.busy_s",
        med(&|p| p.tally.busy_s("core.classify")),
        "s",
    );
    put(
        "core.classify.evals",
        t.count("core.classify.evals") as f64,
        "count",
    );
    for (name, value) in probes::run() {
        let unit = if name.ends_with("_ns") { "ns" } else { "us" };
        put(&name, value, unit);
    }
    let mut run_busy = 0.0;
    for e in ["alg1-auth", "alg3-nonauth", "alg6-fast", "mutant"] {
        let busy = med(&|p| p.tally.busy_s(&format!("protocols.{e}")));
        let events = t.count(&format!("protocols.{e}.events"));
        run_busy += busy;
        if e != "mutant" {
            put(
                &format!("protocols.{e}.runs"),
                t.count(&format!("protocols.{e}.runs")) as f64,
                "count",
            );
        }
        put(&format!("protocols.{e}.busy_s"), busy, "s");
        put(&format!("protocols.{e}.events"), events as f64, "count");
        if e != "mutant" {
            put(
                &format!("protocols.{e}.events_per_s"),
                ratio(events as f64, busy),
                "1/s",
            );
        }
    }
    let (runs, decided) = (t.count("protocols.runs"), t.count("protocols.decided"));
    put(
        "protocols.decided_frac",
        ratio(decided as f64, runs as f64),
        "ratio",
    );
    for c in [
        "events",
        "deliveries",
        "timer_fires",
        "messages",
        "words",
        "dropped",
        "duplicated",
    ] {
        put(
            &format!("simnet.{c}"),
            t.count(&format!("simnet.{c}")) as f64,
            "count",
        );
    }
    let events = t.count("simnet.events");
    let wasted = t.count("simnet.quarantined_events");
    put(
        "simnet.events_per_busy_s",
        ratio(events as f64, run_busy),
        "1/s",
    );
    put(
        "simnet.quarantined_runs",
        t.count("simnet.quarantined_runs") as f64,
        "count",
    );
    put(
        "simnet.wasted_event_frac",
        ratio(wasted as f64, events as f64),
        "ratio",
    );
    put("simnet.queue_high_water", queue_hw as f64, "count");
    put("simnet.slab_high_water", slab_hw as f64, "count");
    put(
        "adversary.adaptive.busy_s",
        med(&|p| p.tally.busy_s("adversary.adaptive")),
        "s",
    );
    put(
        "adversary.oblivious.busy_s",
        med(&|p| p.tally.busy_s("adversary.oblivious")),
        "s",
    );
    put(
        "adversary.equivocations",
        t.count("adversary.equivocations") as f64,
        "count",
    );
    put(
        "adversary.omissions",
        t.count("adversary.omissions") as f64,
        "count",
    );
    put("lab.enumerate_s", med(&|p| p.phases.enumerate), "s");
    put("lab.execute_s", med(&|p| p.phases.execute), "s");
    // Grading happens inside crosscheck cells; it is aggregation work.
    let aggregate = med(&|p| p.phases.aggregate + p.tally.busy_s("lab.grade"));
    put("lab.aggregate_s", aggregate, "s");
    put("lab.emit_s", med(&|p| p.phases.emit), "s");
    let unit_busy = |p: &TracedPass| p.unit_ms.iter().sum::<f64>() / 1e3;
    let pool_util = med(&|p| ratio(unit_busy(p), p.pool_capacity_s));
    put("lab.pool_util", pool_util, "ratio");
    let units: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.unit_ms.iter().copied())
        .collect();
    let (tail_pct, tail) =
        sys::supported_tail(&units).unwrap_or((100.0, sys::quantile(&units, 1.0)));
    put("lab.cell_ms_p50", median(&units), "ms");
    put("lab.cell_ms_tail", tail, "ms");
    put("lab.cell_ms_tail_pct", tail_pct, "percentile");
    put("lab.cell_ms_samples", units.len() as f64, "count");
    put("lab.cell_ms_max", sys::quantile(&units, 1.0), "ms");
    let traced_wall = med(&|p| p.wall.as_secs_f64());
    put(
        "lab.tracing_overhead_frac",
        traced_wall / untraced_wall - 1.0,
        "ratio",
    );
    put(
        "svc_decisions_per_sim_s",
        guard.svc_decisions_per_sim_s.unwrap_or(0.0),
        "decisions/sim_s",
    );

    // The self-time rollup, with the bases of each ratio.
    println!(
        "traced: {} pass(es), {} span(s) in {path}",
        traced.len(),
        all_spans.len()
    );
    let layers = spans::layer_self_s(&all_spans);
    let total: f64 = layers.iter().map(|l| l.1).sum();
    for (layer, s) in &layers {
        println!(
            "  layer {layer:<9} self {s:.4} s = {:.1}% of span time",
            100.0 * s / total
        );
    }
    println!("  (protocols spans hold the simnet event loop, crypto and adversary work of each run; separating them needs spans inside the program)");
    println!("  decided_frac = {decided} decided / {runs} runs");
    println!("  wasted_event_frac = {wasted} events in quarantined runs / {events} events");
    println!(
        "  pool_util = {:.4} s unit busy / {:.4} s pool capacity (pool wall × {workers} worker(s)), median pass",
        med(&|p| unit_busy(p)),
        med(&|p| p.pool_capacity_s)
    );
    println!(
        "  cell_ms_tail = p{tail_pct} of {} unit latencies",
        units.len()
    );

    let attempted = guard.units * traced.len() as u64;
    let failed: u64 = traced
        .iter()
        .map(|p| {
            p.reports.iter().map(|r| r.failed).sum::<u64>() + p.false_kills.unwrap_or(0) as u64
        })
        .sum();
    Ok((attempted, failed))
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
