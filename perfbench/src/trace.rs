//! Span tracing from outside the program: the benchmark wraps each call
//! into a layer's public API in a span (name, layer, start, end, parent,
//! run id) and keeps the spans in memory until the run ends.
//!
//! Work a public call does inside another layer is attributed through the
//! program's own obs spans (`golden`, `campaign`, ...), captured by an
//! obs sink and nested under the enclosing benchmark span by interval
//! containment — never by timing the same work twice.

use permea_obs::{Event, Obs, Sink};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Layer of the benchmark's own glue; root spans carry it.
pub const HARNESS: &str = "harness";

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// What was called, e.g. `core.graph`.
    pub name: String,
    /// Crate the call belongs to.
    pub layer: &'static str,
    /// Thread the span ran on (0, 1, ... in first-use order).
    pub lane: u32,
    /// Iteration or campaign the span belongs to.
    pub run: u64,
    /// Start, µs since the tracer was created.
    pub start_us: f64,
    /// End, µs since the tracer was created.
    pub end_us: f64,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end_us - self.start_us
    }
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static LANE: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Collects spans while enabled; a disabled tracer only calls through.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    next_lane: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            next_lane: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Turns span recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// `true` while recording.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn lane(&self) -> u32 {
        LANE.with(|lane| match lane.get() {
            Some(l) => l,
            None => {
                let l = self.next_lane.fetch_add(1, Ordering::Relaxed);
                lane.set(Some(l));
                l
            }
        })
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list lock").push(span);
    }

    /// Runs `f` inside a span named `name` of `layer`, nested under the
    /// innermost open span of this thread.
    pub fn scope<T>(&self, layer: &'static str, name: &str, run: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| s.borrow().last().copied());
        STACK.with(|s| s.borrow_mut().push(id));
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        STACK.with(|s| s.borrow_mut().pop());
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            layer,
            lane: self.lane(),
            run,
            start_us,
            end_us,
        });
        out
    }

    /// An obs handle whose span events land in this tracer as `fi.<name>`
    /// spans of iteration `run` (plus the usual in-memory registry, so
    /// counters and histograms stay readable through `Obs::snapshot`).
    pub fn obs(self: &Arc<Self>, run: u64) -> Obs {
        let sink = Arc::new(ObsCapture {
            tracer: self.clone(),
            offset_us: Mutex::new(0.0),
            run,
        });
        let obs = Obs::with_sinks(vec![sink.clone() as Arc<dyn Sink>]);
        *sink.offset_us.lock().expect("offset lock") = self.now_us() - obs.now_micros() as f64;
        obs
    }

    /// Every span recorded so far, with captured obs spans re-parented
    /// under the smallest span of their thread that contains them.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list lock").clone();
        // Obs timestamps are whole microseconds; allow that much slack.
        const SLACK_US: f64 = 2.0;
        for i in 0..spans.len() {
            if spans[i].parent.is_some() || !spans[i].name.starts_with("fi.obs.") {
                continue;
            }
            let s = &spans[i];
            let parent = spans
                .iter()
                .filter(|p| {
                    p.id != s.id
                        && p.lane == s.lane
                        && p.start_us <= s.start_us + SLACK_US
                        && p.end_us + SLACK_US >= s.end_us
                        && p.duration() >= s.duration()
                })
                .min_by(|a, b| a.duration().total_cmp(&b.duration()))
                .map(|p| p.id);
            spans[i].parent = parent;
        }
        spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":{:?},\"layer\":{:?},\"lane\":{},\"run\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}\n",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.layer,
                s.lane,
                s.run,
                s.start_us,
                s.end_us
            ));
        }
        std::fs::write(path, out)
    }
}

#[derive(Debug)]
struct ObsCapture {
    tracer: Arc<Tracer>,
    offset_us: Mutex<f64>,
    run: u64,
}

impl Sink for ObsCapture {
    fn event(&self, now_micros: u64, event: &Event<'_>) {
        let Event::SpanEnd { name, micros } = event else {
            return;
        };
        if !self.tracer.enabled() {
            return;
        }
        let end_us = *self.offset_us.lock().expect("offset lock") + now_micros as f64;
        self.tracer.push(Span {
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent: None,
            name: format!("fi.obs.{name}"),
            layer: "fi",
            lane: self.tracer.lane(),
            run: self.run,
            start_us: end_us - *micros as f64,
            end_us,
        });
    }
}

/// Per-iteration analysis of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Self time per layer, seconds (root spans count as `harness`).
    pub self_s: BTreeMap<&'static str, f64>,
    /// Total duration per span name, seconds.
    pub by_name_s: BTreeMap<String, f64>,
    /// Sum of every non-root span's self time, seconds.
    pub attributed_s: f64,
    /// Sum of root span durations (one root per thread lane), seconds;
    /// `attributed_s / root_s` is the trace's coverage.
    pub root_s: f64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self times, per-name totals and attributed time of the spans of `run`.
pub fn attribute(spans: &[Span], run: u64) -> Attribution {
    let spans: Vec<&Span> = spans.iter().filter(|s| s.run == run).collect();
    let mut out = Attribution::default();
    let mut root_total = 0.0;
    let mut attributed = 0.0;
    for s in &spans {
        let children: Vec<(f64, f64)> = spans
            .iter()
            .filter(|c| c.parent == Some(s.id))
            .map(|c| (c.start_us, c.end_us))
            .collect();
        let self_us = s.duration() - covered(children, s.start_us, s.end_us);
        let layer = if s.parent.is_none() { HARNESS } else { s.layer };
        *out.self_s.entry(layer).or_default() += self_us * 1e-6;
        *out.by_name_s.entry(s.name.clone()).or_default() += s.duration() * 1e-6;
        if s.parent.is_none() {
            root_total += s.duration();
        } else {
            attributed += self_us;
        }
    }
    out.attributed_s = attributed * 1e-6;
    out.root_s = root_total * 1e-6;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer,
            lane: 0,
            run: 1,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, HARNESS, 0.0, 100.0),
            span(2, Some(1), "fi", 10.0, 60.0),
            span(3, Some(2), "fi", 20.0, 30.0),
            span(4, Some(2), "fi", 25.0, 40.0),
            span(5, Some(1), "core", 70.0, 90.0),
        ];
        let a = attribute(&spans, 1);
        assert!((a.self_s[HARNESS] - 30e-6).abs() < 1e-12);
        // fi: (50 - 20 covered) + 10 + 15 = 55 µs.
        assert!((a.self_s["fi"] - 55e-6).abs() < 1e-12);
        assert!((a.self_s["core"] - 20e-6).abs() < 1e-12);
        assert!((a.attributed_s / a.root_s - 0.75).abs() < 1e-9);
    }

    #[test]
    fn obs_spans_nest_by_containment() {
        let tracer = Arc::new(Tracer::default());
        tracer.set_enabled(true);
        let obs = tracer.obs(7);
        tracer.scope(HARNESS, "root", 7, || {
            tracer.scope("fi", "fi.run", 7, || {
                let outer = obs.span("campaign");
                let inner = obs.span("golden");
                std::thread::sleep(std::time::Duration::from_millis(2));
                inner.end();
                std::thread::sleep(std::time::Duration::from_millis(2));
                outer.end();
            })
        });
        let spans = tracer.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
        assert_eq!(
            by_name("fi.obs.campaign").parent,
            Some(by_name("fi.run").id)
        );
        assert_eq!(
            by_name("fi.obs.golden").parent,
            Some(by_name("fi.obs.campaign").id)
        );
        let a = attribute(&spans, 7);
        assert!(a.attributed_s / a.root_s > 0.9, "{a:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::default();
        assert_eq!(tracer.scope("fi", "x", 0, || 5), 5);
        assert!(tracer.spans().is_empty());
    }
}
