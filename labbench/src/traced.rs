//! The traced run: re-drives a pass's cells from outside, through
//! `runner::execute_with_budget`, `classify_with_cost`, `grade`,
//! `execute_service` and `MutateMatrix::mutants()`, with a span around
//! every call into a layer. Reports are rebuilt from the re-driven records
//! and must match the untraced pass byte for byte.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use validity_adversary::BehaviorId;
use validity_core::{classify_with_cost, Classification, Domain, SystemParams};
use validity_lab::{
    classifier_in_band, execute_service, execute_with_budget, grade, AgreementLevel, CellRecord,
    CellSpec, CrosscheckCell, CrosscheckMatrix, CrosscheckRecord, CrosscheckReport, EngineColumn,
    EngineOutcome, EngineVerdict, MutateMatrix, Outcome, ProtocolAxis, RunCell, ScenarioMatrix,
    ServiceMatrix, ServiceReport, SweepReport,
};
use validity_protocols::VectorSpec;

use crate::plan::{self, count_run, Check, Counts, Report, Workload};
use crate::spans::{Local, Recorder};

/// Deterministic counts plus busy nanoseconds by span name, gathered at the
/// same boundaries the spans are recorded at.
#[derive(Default)]
pub struct Tally {
    /// Work counts (see [`plan::count_run`]).
    pub counts: Counts,
    /// Busy time by `<layer>.<what>`, plus `adversary.adaptive` /
    /// `adversary.oblivious` for runs with a filled faulty slot.
    pub busy_ns: BTreeMap<String, u64>,
}

impl Tally {
    fn busy(&mut self, name: &str, ns: u64) {
        *self.busy_ns.entry(name.to_string()).or_default() += ns;
    }

    /// One classifier call of `cost` admissibility evaluations.
    fn classified(&mut self, ns: u64, cost: u64) {
        self.busy("core.classify", ns);
        plan::count_classify(&mut self.counts, cost);
    }

    /// A run's busy time, once more under its adversary's kind when a
    /// faulty slot is filled.
    fn adversary(&mut self, behavior: BehaviorId, byz: usize, ns: u64) {
        if byz > 0 {
            let kind = if behavior.is_adaptive() {
                "adversary.adaptive"
            } else {
                "adversary.oblivious"
            };
            self.busy(kind, ns);
        }
    }

    fn merge(&mut self, other: Tally) {
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
        for (k, v) in other.busy_ns {
            *self.busy_ns.entry(k).or_default() += v;
        }
    }

    /// Busy seconds under `name` (0 when nothing ran there).
    pub fn busy_s(&self, name: &str) -> f64 {
        self.busy_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// A count (0 when nothing was counted).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// Wall time of the lab's own phases in one traced pass.
#[derive(Default, Clone, Copy)]
pub struct Phases {
    /// Building matrices and enumerating cells.
    pub enumerate: f64,
    /// The worker pools.
    pub execute: f64,
    /// Reports, fits, and crosscheck grading.
    pub aggregate: f64,
    /// JSON and Markdown rendering.
    pub emit: f64,
}

/// What one traced pass measured and produced.
pub struct TracedPass {
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Rebuilt reports (the kill matrix is graded inside `run_mutate` and
    /// is not rebuilt; see [`TracedPass::false_kills`]).
    pub reports: Vec<Report>,
    /// Counts and busy time over every call the pass made.
    pub tally: Tally,
    /// Lab phase wall times.
    pub phases: Phases,
    /// Busy time of each unit a worker pool dispatched, in ms.
    pub unit_ms: Vec<f64>,
    /// Σ pool wall time × pool workers, in seconds: the capacity `unit_ms`
    /// fills.
    pub pool_capacity_s: f64,
    /// Every simulation run in deterministic order, with its budget and
    /// record, for the observed re-execution.
    pub runs: Vec<(CellSpec, Option<u64>, CellRecord)>,
    /// Baseline cells of the kill matrix where the clean engines disagree.
    pub false_kills: Option<usize>,
}

/// The pass under construction.
struct Pass<'r> {
    l: Local<'r>,
    root: u32,
    workers: usize,
    out: TracedPass,
    /// Fingerprinting and checking of each emitted report, deferred until
    /// the pass's wall time is taken (the untraced pass times neither).
    checks: Vec<Check>,
}

impl<'r> Pass<'r> {
    /// Times `f` as phase span `name` under the pass root.
    fn phase<T>(&mut self, name: &str, f: impl FnOnce(&mut Local<'r>, u32) -> T) -> T {
        let (out, ns) = self.l.span(name, Some(self.root), f);
        let s = ns as f64 / 1e9;
        match name {
            "lab.enumerate" => self.out.phases.enumerate += s,
            "lab.execute" => self.out.phases.execute += s,
            "lab.aggregate" => self.out.phases.aggregate += s,
            "lab.emit" => self.out.phases.emit += s,
            _ => unreachable!("unknown lab phase {name}"),
        }
        out
    }

    /// Runs `job` over `items` on the pass's worker count, results in item
    /// order — the lab's atomic-cursor pool shape, with each unit timed.
    fn pool<C: Sync, T: Send>(
        &mut self,
        items: &[C],
        job: impl Fn(&mut Local<'r>, &mut Tally, u32, &C) -> T + Sync,
    ) -> Vec<T> {
        let workers = self.workers.min(items.len().max(1));
        let started = Instant::now();
        let (results, tallies, unit_ms) = self.phase("lab.execute", |l, parent| {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<(T, f64)>>> =
                items.iter().map(|_| Mutex::new(None)).collect();
            let tallies: Vec<Tally> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let mut local = l.fork();
                        let (next, slots, job) = (&next, &slots, &job);
                        scope.spawn(move || {
                            let mut tally = Tally::default();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= items.len() {
                                    break tally;
                                }
                                let started = Instant::now();
                                let out = job(&mut local, &mut tally, parent, &items[i]);
                                let ms = started.elapsed().as_secs_f64() * 1e3;
                                *slots[i].lock().expect("result slot poisoned") = Some((out, ms));
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("traced worker panicked"))
                    .collect()
            });
            let (results, unit_ms): (Vec<T>, Vec<f64>) = slots
                .into_iter()
                .map(|s| {
                    s.into_inner()
                        .expect("result slot poisoned")
                        .expect("worker pool exited with an unfilled slot")
                })
                .unzip();
            (results, tallies, unit_ms)
        });
        self.out.pool_capacity_s += started.elapsed().as_secs_f64() * workers as f64;
        for t in tallies {
            self.out.tally.merge(t);
        }
        self.out.unit_ms.extend(unit_ms);
        results
    }
}

/// One simulation run as a `protocols.<label>` span, tallied.
fn run_cell(
    l: &mut Local,
    tally: &mut Tally,
    parent: u32,
    cell: &RunCell,
    label: &str,
    budget: Option<u64>,
) -> CellRecord {
    let spec = CellSpec::Run(*cell);
    let name = format!("protocols.{label}");
    let (record, ns) = l.span(name.as_str(), Some(parent), |_, _| {
        execute_with_budget(&spec, budget)
    });
    let Outcome::Run(r) = &record.outcome else {
        unreachable!("run cells produce run outcomes")
    };
    count_run(&mut tally.counts, label, r);
    tally.busy(&name, ns);
    tally.adversary(cell.behavior, cell.byz, ns);
    record
}

/// The classifier as a `core.classify` span, tallied.
fn classify_cell(
    l: &mut Local,
    tally: &mut Tally,
    parent: u32,
    cell: &CrosscheckCell,
    domain: u64,
) -> Classification<u64> {
    let params = SystemParams::new(cell.n, cell.t).expect("matrix enumerated an invalid (n, t)");
    let ((c, cost), ns) = l.span("core.classify", Some(parent), |_, _| {
        classify_with_cost(
            &cell.validity.property(cell.t),
            params,
            &Domain::range(domain),
        )
    });
    tally.classified(ns, cost);
    c
}

/// `grade` as a `lab.grade` span, tallied.
fn grade_cell(
    l: &mut Local,
    tally: &mut Tally,
    parent: u32,
    classifier: Option<&Classification<u64>>,
    columns: &[EngineColumn],
) -> (AgreementLevel, String) {
    let (out, ns) = l.span("lab.grade", Some(parent), |_, _| grade(classifier, columns));
    tally.busy("lab.grade", ns);
    out
}

/// The run cell a crosscheck or mutate column executes: the engine under
/// `Universal`, on the cell's scenario.
fn column_cell(cell: &CrosscheckCell, engine: VectorSpec) -> RunCell {
    RunCell {
        protocol: ProtocolAxis::wrapped(engine),
        validity: Some(cell.validity),
        behavior: cell.behavior,
        byz: cell.byz,
        fault: cell.fault,
        schedule: cell.schedule,
        n: cell.n,
        t: cell.t,
        seed: cell.seed,
    }
}

fn verdict(record: &CellRecord) -> EngineVerdict {
    let Outcome::Run(r) = &record.outcome else {
        unreachable!("run cells produce run outcomes")
    };
    EngineVerdict {
        decided: r.decided,
        agreement: r.agreement,
        validity_ok: r.validity_ok,
        quarantined: r.quarantined,
    }
}

impl Pass<'_> {
    fn suite(&mut self, m: &ScenarioMatrix) {
        let cells = self.phase("lab.enumerate", |_, _| m.cells());
        let records = self.pool(&cells, |l, tally, parent, cell| match cell {
            CellSpec::Run(c) => {
                run_cell(l, tally, parent, c, c.protocol.engine.name(), m.max_steps)
            }
            CellSpec::Classify(_) => {
                let (record, ns) = l.span("core.classify", Some(parent), |_, _| {
                    execute_with_budget(cell, m.max_steps)
                });
                let Outcome::Classify(c) = &record.outcome else {
                    unreachable!("classify cells produce classify outcomes")
                };
                tally.classified(ns, c.cost);
                record
            }
        });
        let report = self.phase("lab.aggregate", |_, _| {
            SweepReport::aggregate_matrix(m, &records)
        });
        let (json, md) = self.phase("lab.emit", |_, _| (report.to_json(), report.to_markdown()));
        for (cell, record) in cells.into_iter().zip(&records) {
            if matches!(cell, CellSpec::Run(_)) {
                self.out.runs.push((cell, m.max_steps, record.clone()));
            }
        }
        let m = m.clone();
        self.checks.push(Box::new(move || {
            plan::sweep_report(&m, &records, &json, &md)
        }));
    }

    fn service(&mut self, m: &ServiceMatrix) {
        let cells = self.phase("lab.enumerate", |_, _| m.cells());
        let records = self.pool(&cells, |l, tally, parent, cell| {
            let (record, ns) = l.span("protocols.service", Some(parent), |_, _| {
                execute_service(cell)
            });
            tally.busy("protocols.service", ns);
            tally.adversary(cell.behavior, cell.byz, ns);
            record
        });
        let report = self.phase("lab.aggregate", |_, _| {
            ServiceReport::build(&m.name, cells.into_iter().zip(records).collect())
        });
        let (json, md) = self.phase("lab.emit", |_, _| (report.to_json(), report.to_markdown()));
        self.checks
            .push(Box::new(move || plan::service_report(&report, &json, &md)));
    }

    fn crosscheck(&mut self, m: &CrosscheckMatrix) {
        let cells = self.phase("lab.enumerate", |_, _| m.cells());
        let results = self.pool(&cells, |l, tally, parent, cell| {
            let (out, _) = l.span("lab.crosscheck_cell", Some(parent), |l, id| {
                let classifier = classifier_in_band(cell.n, m.domain)
                    .then(|| classify_cell(l, tally, id, cell, m.domain));
                let mut runs = Vec::new();
                let columns: Vec<EngineColumn> = m
                    .engines
                    .iter()
                    .map(|&engine| {
                        let outcome = if engine.applicable_to(cell.n, cell.t) {
                            let rc = column_cell(cell, engine);
                            let record = run_cell(l, tally, id, &rc, engine.name(), m.max_steps);
                            let v = verdict(&record);
                            runs.push((CellSpec::Run(rc), m.max_steps, record));
                            EngineOutcome::Ran(v)
                        } else {
                            EngineOutcome::Skipped
                        };
                        EngineColumn {
                            engine: engine.name(),
                            outcome,
                        }
                    })
                    .collect();
                let (level, detail) = grade_cell(l, tally, id, classifier.as_ref(), &columns);
                let record = CrosscheckRecord {
                    key: cell.key(),
                    verdict: classifier.map(|c| c.label().to_string()),
                    columns,
                    level,
                    detail,
                };
                (record, runs)
            });
            out
        });
        let mut records = Vec::with_capacity(results.len());
        for (record, runs) in results {
            records.push(record);
            self.out.runs.extend(runs);
        }
        let report = self.phase("lab.aggregate", |_, _| CrosscheckReport {
            name: m.name.clone(),
            engines: m.engines.iter().map(|e| e.name()).collect(),
            cells: records,
        });
        let (json, md) = self.phase("lab.emit", |_, _| (report.to_json(), report.to_markdown()));
        self.checks.push(Box::new(move || {
            plan::crosscheck_report(&report, &json, &md)
        }));
    }

    fn mutate(&mut self, m: &MutateMatrix) {
        let (cells, columns) = self.phase("lab.enumerate", |_, _| {
            let columns: Vec<(VectorSpec, &str)> = m
                .grid
                .engines
                .iter()
                .map(|&e| (e, e.name()))
                .chain(m.mutants().into_iter().map(|(_, _, spec)| (spec, "mutant")))
                .collect();
            (m.grid.cells(), columns)
        });
        let jobs: Vec<(usize, usize)> = (0..cells.len())
            .flat_map(|c| (0..columns.len()).map(move |k| (c, k)))
            .collect();
        let records = self.pool(&jobs, |l, tally, parent, &(c, k)| {
            let (engine, label) = columns[k];
            engine.applicable_to(cells[c].n, cells[c].t).then(|| {
                let rc = column_cell(&cells[c], engine);
                run_cell(l, tally, parent, &rc, label, m.grid.max_steps)
            })
        });
        let bases = m.grid.engines.len();
        let false_kills = self.phase("lab.aggregate", |l, id| {
            let mut tally = Tally::default();
            let mut false_kills = 0;
            for (c, cell) in cells.iter().enumerate() {
                let classifier = classifier_in_band(cell.n, m.grid.domain)
                    .then(|| classify_cell(l, &mut tally, id, cell, m.grid.domain));
                let mut row: Vec<EngineColumn> = columns
                    .iter()
                    .zip(&records[c * columns.len()..(c + 1) * columns.len()])
                    .map(|(&(engine, _), record)| EngineColumn {
                        engine: engine.name(),
                        outcome: record
                            .as_ref()
                            .map_or(EngineOutcome::Skipped, |r| EngineOutcome::Ran(verdict(r))),
                    })
                    .collect();
                let mutants = row.split_off(bases);
                let (level, _) = grade_cell(l, &mut tally, id, classifier.as_ref(), &row);
                false_kills += usize::from(level == AgreementLevel::Disagreement);
                for mutant in mutants {
                    row.push(mutant);
                    grade_cell(l, &mut tally, id, classifier.as_ref(), &row);
                    row.pop();
                }
            }
            (false_kills, tally)
        });
        self.out.tally.merge(false_kills.1);
        self.out.false_kills = Some(false_kills.0);
        for (&(c, k), record) in jobs.iter().zip(records) {
            if let Some(record) = record {
                let spec = CellSpec::Run(column_cell(&cells[c], columns[k].0));
                self.out.runs.push((spec, m.grid.max_steps, record));
            }
        }
    }
}

/// One traced pass of `workload` on `workers` threads, recorded as run
/// `run` of `rec`.
pub fn traced_pass(
    rec: &Recorder,
    run: u32,
    workload: Workload,
    seed: u64,
    workers: usize,
) -> TracedPass {
    let started = Instant::now();
    let mut root = rec.local(run);
    let ((mut out, checks), _) = root.span("lab.pass", None, |l, root_id| {
        let mut pass = Pass {
            l: l.fork(),
            root: root_id,
            workers,
            out: TracedPass {
                wall: Duration::ZERO,
                reports: Vec::new(),
                tally: Tally::default(),
                phases: Phases::default(),
                unit_ms: Vec::new(),
                pool_capacity_s: 0.0,
                runs: Vec::new(),
                false_kills: None,
            },
            checks: Vec::new(),
        };
        let plan = pass.phase("lab.enumerate", |_, _| plan::build(workload, seed));
        for m in &plan.suites {
            pass.suite(m);
        }
        if let Some(m) = &plan.service {
            pass.service(m);
        }
        for m in &plan.crosschecks {
            pass.crosscheck(m);
        }
        if let Some(m) = &plan.mutate {
            pass.mutate(m);
        }
        (pass.out, pass.checks)
    });
    out.wall = started.elapsed();
    out.reports = checks.into_iter().map(|check| check()).collect();
    out
}
