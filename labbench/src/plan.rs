//! The workloads: what each one builds, how an untraced pass drives it
//! through the `lab` entry points, and how its outputs are checked.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use validity_crypto::Sha256;
use validity_lab::{
    compare_emitted, run_crosscheck, run_mutate, run_service, suites, AgreementLevel, CellRecord,
    CellSpec, CrosscheckMatrix, CrosscheckReport, MutateMatrix, Outcome, RunRecord, ScenarioMatrix,
    ScheduleSpec, ServiceMatrix, SweepEngine, CATALOGUED_EQUIVALENT,
};

use crate::sys;

/// A named set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper suites plus the replicated service.
    Sweep,
    /// The differential oracle and the faulty-network suites.
    Oracle,
    /// The fault-injection kill matrix.
    Mutate,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::Oracle, Workload::Mutate];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Oracle => "oracle",
            Workload::Mutate => "mutate",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The paper suites of the `sweep` workload. Nearly every run decides, and
/// the cost sits in crypto-heavy Algorithm 1 and Universal cells, the
/// classifier, the fits and the emitters.
const SWEEP_SUITES: [&str; 7] = [
    "fig1",
    "schedules",
    "complexity",
    "universal",
    "nonauth",
    "subcubic",
    "classifier-domain",
];

/// The suites the `oracle` workload runs next to the crosscheck grids:
/// loss, duplication, partition and churn, and observing adversaries.
const ORACLE_SUITES: [&str; 2] = ["netchaos", "adaptive"];

/// Everything one pass of a workload runs, built from the shipped suites
/// with every seed range shifted by the workload seed.
pub struct Plan {
    /// Scenario sweeps, run through `SweepEngine::run`.
    pub suites: Vec<ScenarioMatrix>,
    /// The replicated-service sweep, run through `run_service`.
    pub service: Option<ServiceMatrix>,
    /// Crosscheck grids, run through `run_crosscheck`.
    pub crosschecks: Vec<CrosscheckMatrix>,
    /// The kill matrix, run through `run_mutate`.
    pub mutate: Option<MutateMatrix>,
    /// Cells one pass attempts (mutate: cell × column runs).
    pub units: u64,
}

fn shifted(range: &Range<u64>, seed: u64) -> Range<u64> {
    range.start + seed..range.end + seed
}

/// `MutateMatrix::suite()` cut to one grid cell: maximum silent load on
/// the synchronous schedule at n = 4. Every engine × operator column and
/// the shipped 1,000,000-step budget stay, and this cell alone kills all
/// fifteen mutants; the full eight-cell grid takes about six times as long,
/// too long to repeat within one run.
pub fn mutate_matrix(seed: u64) -> MutateMatrix {
    let mut m = MutateMatrix::suite();
    m.grid.faults = vec![usize::MAX];
    m.grid.schedules = vec![ScheduleSpec::Synchronous];
    m.grid.systems = vec![(4, 1)];
    m.grid.seeds = shifted(&m.grid.seeds, seed);
    m
}

/// Builds the workload from the registries and enumerates its cells: the
/// set-up a pass does before its first cell is dispatched.
pub fn build(workload: Workload, seed: u64) -> Plan {
    let suite = |name: &str| {
        let mut m = suites::build(name).expect("shipped suite");
        m.seeds = shifted(&m.seeds, seed);
        m
    };
    let mut plan = Plan {
        suites: Vec::new(),
        service: None,
        crosschecks: Vec::new(),
        mutate: None,
        units: 0,
    };
    match workload {
        Workload::Sweep => {
            plan.suites = SWEEP_SUITES.iter().map(|s| suite(s)).collect();
            let mut service = ServiceMatrix::suite();
            service.seeds = shifted(&service.seeds, seed);
            plan.service = Some(service);
        }
        Workload::Oracle => {
            plan.crosschecks = [
                CrosscheckMatrix::suite(),
                CrosscheckMatrix::chaos(),
                CrosscheckMatrix::adaptive(),
            ]
            .into_iter()
            .map(|mut m| {
                m.seeds = shifted(&m.seeds, seed);
                m
            })
            .collect();
            plan.suites = ORACLE_SUITES.iter().map(|s| suite(s)).collect();
        }
        Workload::Mutate => plan.mutate = Some(mutate_matrix(seed)),
    }
    plan.units = plan.suites.iter().map(|m| m.len() as u64).sum::<u64>()
        + plan.service.as_ref().map_or(0, |m| m.len() as u64)
        + plan.crosschecks.iter().map(|m| m.len() as u64).sum::<u64>()
        + plan.mutate.as_ref().map_or(0, |m| m.len() as u64);
    plan
}

/// Deterministic work counts, by name.
pub type Counts = BTreeMap<String, u64>;

/// Adds one simulation run's counts under the engine label `label`: the
/// registry name, raw and `Universal`-wrapped pooled, or `mutant`.
pub fn count_run(counts: &mut Counts, label: &str, r: &RunRecord) {
    let mut add = |k: &str, v: u64| *counts.entry(k.to_string()).or_default() += v;
    add(&format!("protocols.{label}.runs"), 1);
    add(&format!("protocols.{label}.events"), r.events);
    add("protocols.runs", 1);
    add("protocols.decided", u64::from(r.decided));
    add("simnet.events", r.events);
    add("simnet.deliveries", r.stats.deliveries);
    add("simnet.timer_fires", r.stats.timer_fires);
    add("simnet.messages", r.stats.messages_total);
    add("simnet.words", r.stats.words_total);
    add("simnet.dropped", r.stats.dropped);
    add("simnet.duplicated", r.stats.duplicated);
    add("simnet.quarantined_runs", u64::from(r.quarantined));
    add(
        "simnet.quarantined_events",
        if r.quarantined { r.events } else { 0 },
    );
    add("adversary.equivocations", r.stats.equivocations);
    add("adversary.omissions", r.stats.omissions);
}

/// Adds one classifier call of `cost` admissibility evaluations.
pub fn count_classify(counts: &mut Counts, cost: u64) {
    *counts.entry("core.classify.calls".into()).or_default() += 1;
    *counts.entry("core.classify.evals".into()).or_default() += cost;
}

/// Adds one scenario cell's counts.
pub fn count_cell(counts: &mut Counts, cell: &CellSpec, record: &CellRecord) {
    match (cell, &record.outcome) {
        (CellSpec::Run(c), Outcome::Run(r)) => count_run(counts, c.protocol.engine.name(), r),
        (CellSpec::Classify(_), Outcome::Classify(c)) => count_classify(counts, c.cost),
        _ => unreachable!("a record's outcome kind follows its cell's"),
    }
}

/// Whether a scenario cell broke its bar: a safety violation (Agreement or
/// an inadmissible decision) in a run, or a Theorem-1 inconsistency in a
/// classification.
pub fn cell_failed(record: &CellRecord) -> bool {
    match &record.outcome {
        Outcome::Run(r) => !r.agreement || r.validity_ok == Some(false),
        Outcome::Classify(c) => !c.theorem1_consistent,
    }
}

/// Cells of a crosscheck report that broke the bar: every `DISAGREEMENT`;
/// every cell when no cell reached full agreement (a vacuous oracle) or
/// when the two emitters disagree.
pub fn crosscheck_failures(report: &CrosscheckReport, json: &str, md: &str) -> u64 {
    let cells = report.cells.len() as u64;
    if report.count(AgreementLevel::Full) == 0 || !compare_emitted(json, md).is_empty() {
        return cells;
    }
    report.disagreements().len() as u64
}

/// One emitted report of a pass.
#[derive(Debug)]
pub struct Report {
    /// The matrix name.
    pub name: String,
    /// SHA-256 of the JSON rendering followed by the Markdown rendering.
    pub sha256: String,
    /// Cells (mutate: runs) the report covers.
    pub units: u64,
    /// Cells that broke their bar.
    pub failed: u64,
    /// SHA-256 of the deterministic counts, where the entry point hands
    /// back records; `-` otherwise.
    pub counts: String,
}

/// The digest of a count map, for comparing counts across processes.
pub fn counts_digest(counts: &Counts) -> String {
    let mut h = Sha256::new();
    for (k, v) in counts {
        h.update(format!("{k}={v}\n"));
    }
    h.finalize().to_hex()
}

/// The fingerprint of a report's two renderings.
pub fn fingerprint(json: &str, md: &str) -> String {
    let mut h = Sha256::new();
    h.update(json);
    h.update(md);
    h.finalize().to_hex()
}

/// What one untraced pass measured and produced.
#[derive(Debug)]
pub struct PassOut {
    /// From the start of the process to the first entry-point call.
    pub setup: Duration,
    /// The whole pass: set-up, execution, aggregation and emission.
    pub wall: Duration,
    /// User + system CPU time over the pass.
    pub cpu: Duration,
    /// Peak resident memory of the process that ran the pass, in MB.
    pub peak_rss_mb: f64,
    /// Cells the pass attempted.
    pub units: u64,
    /// One entry per report, in plan order.
    pub reports: Vec<Report>,
    /// Deterministic simulated service throughput (`sweep` only).
    pub svc_decisions_per_sim_s: Option<f64>,
    /// Baseline disagreements of the kill matrix (`mutate` only).
    pub false_kills: Option<usize>,
}

/// Fingerprinting and checking of one emitted report, deferred until the
/// timed region ends.
pub type Check = Box<dyn FnOnce() -> Report>;

/// Runs one untraced pass on `workers` threads through the public entry
/// points, exactly as the `lab` subcommands call them, then checks and
/// fingerprints the outputs outside the timed region.
///
/// `process_start` is taken first thing in `main`; the pass's set-up runs
/// from there to its first entry-point call.
pub fn run_pass(workload: Workload, seed: u64, workers: usize, process_start: Instant) -> PassOut {
    let cpu0 = sys::cpu_time();
    let t0 = Instant::now();
    let plan = build(workload, seed);
    let setup = process_start.elapsed();
    let mut checks: Vec<Check> = Vec::new();
    let mut svc = None;
    let mut false_kills = None;
    for m in plan.suites {
        let (report, run) = SweepEngine::new(workers).run(&m);
        let (json, md) = (report.to_json(), report.to_markdown());
        checks.push(Box::new(move || sweep_report(&m, &run.records, &json, &md)));
    }
    if let Some(m) = &plan.service {
        let (report, _, _) = run_service(m, workers);
        let (json, md) = (report.to_json(), report.to_markdown());
        svc = Some(svc_decisions_per_sim_s(&report));
        checks.push(Box::new(move || service_report(&report, &json, &md)));
    }
    for m in &plan.crosschecks {
        let (report, _, _) = run_crosscheck(m, workers);
        let (json, md) = (report.to_json(), report.to_markdown());
        checks.push(Box::new(move || crosscheck_report(&report, &json, &md)));
    }
    if let Some(m) = &plan.mutate {
        let (report, _) = run_mutate(m, workers);
        let (json, md) = (report.to_json(), report.to_markdown());
        false_kills = Some(report.false_kills.len());
        let units = m.len() as u64;
        checks.push(Box::new(move || Report {
            name: report.name.clone(),
            sha256: fingerprint(&json, &md),
            units,
            failed: mutate_failures(&report),
            counts: "-".into(),
        }));
    }
    let wall = t0.elapsed();
    let cpu = sys::cpu_time().saturating_sub(cpu0);
    PassOut {
        setup,
        wall,
        peak_rss_mb: sys::peak_rss_mb(),
        cpu,
        units: plan.units,
        reports: checks.into_iter().map(|check| check()).collect(),
        svc_decisions_per_sim_s: svc,
        false_kills,
    }
}

impl PassOut {
    /// The pass as text lines, for a parent process to read back with
    /// [`PassOut::parse`].
    pub fn to_lines(&self) -> String {
        let opt = |v: Option<String>| v.unwrap_or_else(|| "-".into());
        let mut out = format!(
            "PASS {} {} {} {} {} {} {}\n",
            self.setup.as_nanos(),
            self.wall.as_nanos(),
            self.cpu.as_nanos(),
            self.peak_rss_mb,
            self.units,
            opt(self.svc_decisions_per_sim_s.map(|v| v.to_string())),
            opt(self.false_kills.map(|v| v.to_string())),
        );
        for r in &self.reports {
            out.push_str(&format!(
                "REPORT {} {} {} {} {}\n",
                r.name, r.sha256, r.units, r.failed, r.counts
            ));
        }
        out
    }

    /// Reads back [`PassOut::to_lines`].
    pub fn parse(text: &str) -> Result<PassOut, String> {
        fn num<T: std::str::FromStr>(field: Option<&str>) -> Result<T, String> {
            let f = field.ok_or("truncated pass line")?;
            f.parse()
                .map_err(|_| format!("bad number '{f}' in pass line"))
        }
        fn opt<T: std::str::FromStr>(field: Option<&str>) -> Result<Option<T>, String> {
            match field {
                Some("-") => Ok(None),
                f => num(f).map(Some),
            }
        }
        let mut pass = None;
        let mut reports = Vec::new();
        for line in text.lines() {
            let mut f = line.split(' ');
            match f.next() {
                Some("PASS") => {
                    pass = Some(PassOut {
                        setup: Duration::from_nanos(num(f.next())?),
                        wall: Duration::from_nanos(num(f.next())?),
                        cpu: Duration::from_nanos(num(f.next())?),
                        peak_rss_mb: num(f.next())?,
                        units: num(f.next())?,
                        svc_decisions_per_sim_s: opt(f.next())?,
                        false_kills: opt(f.next())?,
                        reports: Vec::new(),
                    })
                }
                Some("REPORT") => reports.push(Report {
                    name: f.next().ok_or("truncated report line")?.to_string(),
                    sha256: f.next().ok_or("truncated report line")?.to_string(),
                    units: num(f.next())?,
                    failed: num(f.next())?,
                    counts: f.next().ok_or("truncated report line")?.to_string(),
                }),
                _ => {}
            }
        }
        let mut pass = pass.ok_or("the pass printed no PASS line")?;
        pass.reports = reports;
        Ok(pass)
    }
}

/// A scenario sweep's report entry; its records come back in matrix order.
pub fn sweep_report(m: &ScenarioMatrix, records: &[CellRecord], json: &str, md: &str) -> Report {
    let mut counts = Counts::new();
    for (cell, record) in m.cells().iter().zip(records) {
        count_cell(&mut counts, cell, record);
    }
    Report {
        name: m.name.clone(),
        sha256: fingerprint(json, md),
        units: records.len() as u64,
        failed: records.iter().filter(|r| cell_failed(r)).count() as u64,
        counts: counts_digest(&counts),
    }
}

/// A crosscheck grid's report entry.
pub fn crosscheck_report(report: &CrosscheckReport, json: &str, md: &str) -> Report {
    Report {
        name: report.name.clone(),
        sha256: fingerprint(json, md),
        units: report.cells.len() as u64,
        failed: crosscheck_failures(report, json, md),
        counts: "-".into(),
    }
}

/// The service sweep's report entry.
pub fn service_report(report: &validity_lab::ServiceReport, json: &str, md: &str) -> Report {
    Report {
        name: report.name.clone(),
        sha256: fingerprint(json, md),
        units: report.cells.len() as u64,
        failed: report.failures(),
        counts: "-".into(),
    }
}

/// Committed decisions per simulated second over the whole service sweep
/// (1000 simulator ticks are one simulated second).
pub fn svc_decisions_per_sim_s(report: &validity_lab::ServiceReport) -> f64 {
    let committed: u64 = report.groups.iter().map(|g| g.committed).sum();
    let ticks: u64 = report.groups.iter().map(|g| g.duration).sum();
    committed as f64 * 1000.0 / ticks.max(1) as f64
}

/// Runs of the kill matrix that broke the bar: none when
/// `gate(CATALOGUED_EQUIVALENT)` passes; otherwise every false kill and
/// every mutant the gate rejects (at least one).
pub fn mutate_failures(report: &validity_lab::MutateReport) -> u64 {
    if report.gate(CATALOGUED_EQUIVALENT).is_ok() {
        return 0;
    }
    let escaped = report
        .fates
        .iter()
        .filter(|f| f.killed() == CATALOGUED_EQUIVALENT.contains(&f.name))
        .count();
    (report.false_kills.len() + escaped).max(1) as u64
}

/// Fingerprints recorded for each workload and seed, from `expected.tsv`:
/// one `workload<TAB>seed<TAB>report<TAB>sha256` line per report.
pub struct Expected(BTreeMap<(String, u64, String), String>);

impl Expected {
    /// The table shipped with the benchmark.
    pub fn shipped() -> Expected {
        Expected::parse(include_str!("../expected.tsv"))
    }

    /// Parses the table; blank lines and `#` comments are skipped.
    pub fn parse(text: &str) -> Expected {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 4, "malformed fingerprint line: {line}");
            let seed = f[1].parse().expect("fingerprint seed is a number");
            map.insert((f[0].to_string(), seed, f[2].to_string()), f[3].to_string());
        }
        Expected(map)
    }

    /// Whether any fingerprint is recorded for this workload and seed.
    pub fn covers(&self, workload: Workload, seed: u64) -> bool {
        self.0
            .keys()
            .any(|(w, s, _)| w == workload.name() && *s == seed)
    }

    /// Checks each report against the recorded fingerprint and returns the
    /// mismatches. A seed with nothing recorded checks nothing; a recorded
    /// seed must cover every report.
    pub fn mismatches(&self, workload: Workload, seed: u64, reports: &[Report]) -> Vec<String> {
        if !self.covers(workload, seed) {
            return Vec::new();
        }
        reports
            .iter()
            .filter_map(|r| {
                let key = (workload.name().to_string(), seed, r.name.clone());
                match self.0.get(&key) {
                    Some(want) if *want == r.sha256 => None,
                    Some(want) => Some(format!(
                        "{}: sha256 {} != recorded {want}",
                        r.name, r.sha256
                    )),
                    None => Some(format!("{}: no fingerprint recorded", r.name)),
                }
            })
            .collect()
    }

    /// Renders table lines for one pass's reports.
    pub fn lines(workload: Workload, seed: u64, reports: &[Report]) -> String {
        reports
            .iter()
            .map(|r| format!("{}\t{seed}\t{}\t{}\n", workload.name(), r.name, r.sha256))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_lab::SweepReport;

    fn schedules_report() -> Report {
        let m = suites::build("schedules").expect("shipped suite");
        let run = SweepEngine::new(1).execute(&m);
        let report = SweepReport::aggregate_matrix(&m, &run.records);
        sweep_report(&m, &run.records, &report.to_json(), &report.to_markdown())
    }

    #[test]
    fn wrong_fingerprint_fires_and_right_one_passes() {
        let report = schedules_report();
        assert_eq!(report.failed, 0);
        let right = Expected::parse(&Expected::lines(Workload::Sweep, 0, &[report]));
        let report = schedules_report();
        assert!(right
            .mismatches(Workload::Sweep, 0, std::slice::from_ref(&report))
            .is_empty());
        let wrong = Expected::parse(&format!("sweep\t0\tschedules\t{}\n", "0".repeat(64)));
        let found = wrong.mismatches(Workload::Sweep, 0, &[report]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("!= recorded"));
    }

    #[test]
    fn recorded_seed_must_cover_every_report() {
        let table = Expected::parse("sweep\t3\tfig1\tabc\n");
        let report = Report {
            name: "schedules".into(),
            sha256: "def".into(),
            units: 1,
            failed: 0,
            counts: "-".into(),
        };
        assert_eq!(table.mismatches(Workload::Sweep, 3, &[report]).len(), 1);
        assert!(!table.covers(Workload::Sweep, 4));
    }

    #[test]
    fn seed_shifts_every_range_and_zero_is_the_shipped_suite() {
        let shipped = suites::build("fig1").expect("shipped suite");
        let plan = build(Workload::Sweep, 0);
        assert_eq!(plan.suites[0].seeds, shipped.seeds);
        let plan = build(Workload::Sweep, 5);
        assert_eq!(plan.suites[0].seeds.start, shipped.seeds.start + 5);
        let m = build(Workload::Mutate, 2).mutate.expect("mutate plan");
        assert_eq!(m.grid.seeds, 2..3);
        assert_eq!(m.grid.max_steps, MutateMatrix::suite().grid.max_steps);
        assert_eq!(m.mutants().len(), MutateMatrix::suite().mutants().len());
    }
}
