//! The span recorder of the traced run: spans kept in memory, written out
//! at the end, and rolled up into each layer's self time.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the recorder.
    pub id: u32,
    /// `<layer>.<what>`, e.g. `protocols.alg1-auth` or `lab.emit`.
    pub name: String,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end: u64,
    /// The span this call was made from (`None` for a pass root).
    pub parent: Option<u32>,
    /// The traced pass the span belongs to.
    pub run: u32,
}

impl Span {
    /// The span's layer: the name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans from any number of threads.
pub struct Recorder {
    epoch: Instant,
    next: AtomicU32,
    done: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            done: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// A per-thread handle recording spans of pass `run`.
    pub fn local(&self, run: u32) -> Local<'_> {
        Local {
            rec: self,
            run,
            spans: Vec::new(),
        }
    }

    /// Every span recorded so far, by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.done.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// A thread's span buffer; flushed into the recorder when dropped.
pub struct Local<'a> {
    rec: &'a Recorder,
    run: u32,
    spans: Vec<Span>,
}

impl<'a> Local<'a> {
    /// Times `f` as span `name` under `parent`, passing `f` this handle and
    /// the new span's id so it can record children. Returns `f`'s result and
    /// the span's duration in nanoseconds.
    pub fn span<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<u32>,
        f: impl FnOnce(&mut Self, u32) -> T,
    ) -> (T, u64) {
        let id = self.rec.next.fetch_add(1, Ordering::Relaxed);
        let start = self.rec.now();
        let out = f(self, id);
        let end = self.rec.now();
        self.spans.push(Span {
            id,
            name: name.into(),
            start,
            end,
            parent,
            run: self.run,
        });
        (out, end - start)
    }

    /// A handle for another thread of the same pass.
    pub fn fork(&self) -> Local<'a> {
        self.rec.local(self.run)
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        if let Ok(mut done) = self.rec.done.lock() {
            done.append(&mut self.spans);
        }
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover (children on parallel threads may overlap each other;
/// the covered part is their union).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns() - covered
        })
        .collect()
}

/// Self time summed by layer, in seconds, sorted by layer name.
pub fn layer_self_s(spans: &[Span]) -> Vec<(String, f64)> {
    let mut by: std::collections::BTreeMap<String, u64> = Default::default();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by.entry(s.layer().to_string()).or_default() += t;
    }
    by.into_iter().map(|(k, v)| (k, v as f64 / 1e9)).collect()
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run\":{}}}",
            s.id, s.name, s.start, s.end, parent, s.run
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name: name.into(),
            start,
            end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, "lab.execute", 0, 100, None),
            span(1, "protocols.a", 10, 50, Some(0)),
            span(2, "protocols.b", 30, 70, Some(0)), // overlaps its sibling
            span(3, "core.classify", 90, 95, Some(0)),
            span(4, "lab.grade", 20, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60 - 5, 35, 40, 5, 5]);
        let layers = layer_self_s(&spans);
        assert_eq!(layers[0].0, "core");
        assert_eq!(layers[1], ("lab".to_string(), 40.0 / 1e9));
    }

    #[test]
    fn threads_flush_into_one_recorder() {
        let rec = Recorder::new();
        let mut root = rec.local(3);
        let (_, _) = root.span("lab.pass", None, |l, id| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let mut w = l.fork();
                    s.spawn(move || w.span("protocols.x", Some(id), |_, _| ()));
                }
            });
        });
        drop(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.run == 3 && s.end >= s.start));
        assert_eq!(spans.iter().filter(|s| s.parent == Some(0)).count(), 2);
        assert_eq!(to_jsonl(&spans).lines().count(), 3);
    }
}
