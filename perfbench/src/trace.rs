//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer, from the benchmark's own code; the program itself is not
//! instrumented. A disabled recorder runs the wrapped call and records
//! nothing, so set-up code can be shared between the untraced and the
//! traced run.

use std::fmt::Write as _;
use std::time::Instant;

/// One layer call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `core.decode`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark instance (model × stage count, or round) the call
    /// served; spans of one instance share it.
    pub instance: Option<u32>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records every span.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`. Spans opened by `f` become
    /// its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        instance: Option<u32>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            instance,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded so far; marks where a round's spans begin.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the part of it that
    /// its direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] = self_ns[p].saturating_sub(s.duration_ns());
            }
        }
        self_ns
    }

    /// Summed self time, in seconds, of the spans named `name` among
    /// `spans()[from..]`.
    pub fn self_s(&self, from: usize, name: &str) -> f64 {
        let self_ns = self.self_times_ns();
        let total: u64 = (from..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_ns[i])
            .sum();
        total as f64 * 1e-9
    }

    /// Durations, in seconds, of the spans named `name` among
    /// `spans()[from..]`, in start order.
    pub fn durations_s(&self, from: usize, name: &str) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// The spans as a Chrome `trace_event` document (loadable in
    /// Perfetto), with `meta` as `otherData`. Each event's `args` carry
    /// the span id, parent id, and instance id.
    pub fn chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"instance\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.instance.map_or("null".to_string(), |n| n.to_string()),
            );
        }
        out.push_str("\n],\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":\"{}\"", crate::report::json_escape(v));
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        t.span("outer", None, |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", Some(7), |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].instance, Some(7));
        let self_ns = t.self_times_ns();
        assert_eq!(self_ns[0] + spans[1].duration_ns(), spans[0].duration_ns());
        assert_eq!(self_ns[1], spans[1].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", None, |_| 3), 3);
        assert!(t.spans().is_empty());
    }
}
