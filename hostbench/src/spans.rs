//! Host-time spans for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer,
//! kept in memory and written out when the run ends. Each has a name, a
//! start and end (ns since the recorder started), its parent span and an
//! id shared by every span of one tenant, row or checkpoint operation.
//! With the recorder off (every untraced run) [`span`] only calls through.
//!
//! `efex_report::ChromeTrace` converts simulated cycles and carries no span
//! ids or parents, so the Chrome document is written here.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    id: u64,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            id: 0,
        })
    });
}

/// Stops recording and hands back every span, in start order.
pub fn finish() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().take().map(|r| r.spans).unwrap_or_default())
}

/// Sets the id stamped on spans opened from now on.
pub fn set_id(id: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.id = id;
        }
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let idx = rec.spans.len();
        rec.spans.push(Span {
            name: name.to_string(),
            id: rec.id,
            parent: rec.open.last().copied(),
            start_ns: rec.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        rec.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// Spans recorded so far; pass to [`durations_since`].
pub fn mark() -> usize {
    REC.with(|r| r.borrow().as_ref().map_or(0, |rec| rec.spans.len()))
}

/// Durations in µs of the spans named `name` recorded since `mark`, in
/// start order.
pub fn durations_since(mark: usize, name: &str) -> Vec<f64> {
    REC.with(|r| {
        r.borrow().as_ref().map_or_else(Vec::new, |rec| {
            rec.spans[mark.min(rec.spans.len())..]
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect()
        })
    })
}

/// Per span name: `(count, total ns, self ns)`, where a span's self time
/// is its duration minus the time its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut table: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let e = table.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(child);
    }
    table
}

/// The spans as a Chrome trace-event document (`"X"` complete events,
/// µs timestamps; `args` carries the span index, parent and id).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":{:?},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}{}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            if i + 1 < spans.len() { "," } else { "" },
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_id_and_self_time() {
        start();
        set_id(7);
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        assert_eq!(durations_since(1, "inner").len(), 1);
        assert!(durations_since(0, "inner")[0] >= 2000.0);
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 7));
        let t = self_times(&spans);
        let (_, outer_total, outer_self) = t["outer"];
        assert_eq!(outer_self, outer_total - spans[1].dur_ns());
        let doc = efex_report::jsonval::parse(&chrome_json(&spans)).expect("valid JSON");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(|e| e.as_array())
                .map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn span_is_a_plain_call_when_not_recording() {
        assert_eq!(span("x", || 41 + 1), 42);
        assert!(finish().is_empty());
    }
}
