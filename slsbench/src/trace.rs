//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span carries both clocks: host start/end (nanoseconds since the
//! tracer was created) and virtual start/end (the simulation clock). It
//! names its layer, its parent and the round it belongs to. Spans are
//! kept in memory and written out once, at exit, when `--trace-out` is
//! given. With tracing off every entry point returns at once, so the
//! untraced run pays a branch per call and nothing else.
//!
//! Two kinds of span have no host interval of their own:
//!
//! * *synthesised* children split a parent's virtual interval using the
//!   breakdown the system returned (`CheckpointBreakdown`,
//!   `RestoreBreakdown`); their host interval is empty;
//! * *aggregates* fold the many short calls of one round (every `Get`,
//!   every `mem_write`) into one span whose `count` is the number of
//!   calls and whose host and virtual lengths are the summed busy times.

use std::io::Write;
use std::time::Instant;

use criterion::wall_now;

/// How a span came to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Opened and closed around one call.
    Call,
    /// Synthesised from a returned breakdown.
    Split,
    /// Many short calls folded together.
    Aggregate,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// How it was recorded.
    pub kind: Kind,
    /// What ran, e.g. `core.checkpoint`.
    pub name: &'static str,
    /// The layer it belongs to: `apps`, `vm`, `core`, `objstore`, `hw`
    /// or `bench`.
    pub layer: &'static str,
    /// Host nanoseconds since the tracer's epoch.
    pub host_start_ns: u64,
    /// Host end; equals the start for synthesised spans.
    pub host_end_ns: u64,
    /// Virtual nanoseconds at the start.
    pub v_start_ns: u64,
    /// Virtual end.
    pub v_end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Round the span belongs to.
    pub round: u32,
    /// Calls folded into the span (1 unless it is an aggregate).
    pub count: u64,
}

impl Span {
    /// Host nanoseconds covered.
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }

    /// Virtual nanoseconds covered.
    pub fn v_ns(&self) -> u64 {
        self.v_end_ns - self.v_start_ns
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type Tok = Option<u32>;

/// Busy-time accumulator for the short calls of one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Calls.
    pub count: u64,
    /// Summed host nanoseconds.
    pub host_ns: u64,
    /// Summed virtual nanoseconds.
    pub v_ns: u64,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Calls (aggregates count every folded call).
    pub count: u64,
    /// Summed host nanoseconds.
    pub host_ns: u64,
    /// Summed virtual nanoseconds.
    pub v_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    /// Whether spans are being recorded right now.
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            enabled: on,
            epoch: wall_now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between rounds (no span may be open).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty());
        self.enabled = on;
    }

    /// Sets the round id stamped on the spans that follow.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn host_now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span at virtual instant `v_now`.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, v_now: u64) -> Tok {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len() as u32;
        let now = self.host_now();
        self.spans.push(Span {
            kind: Kind::Call,
            name,
            layer,
            host_start_ns: now,
            host_end_ns: now,
            v_start_ns: v_now,
            v_end_ns: v_now,
            parent: self.open.last().copied(),
            round: self.round,
            count: 1,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes `tok` at virtual instant `v_end`. The virtual end may lie
    /// past the call's return: a checkpoint's span ends when it is
    /// durable.
    pub fn end(&mut self, tok: Tok, v_end: u64) {
        let Some(idx) = tok else { return };
        let now = self.host_now();
        while let Some(top) = self.open.pop() {
            if top == idx {
                break;
            }
        }
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.host_end_ns = now;
            s.v_end_ns = v_end.max(s.v_start_ns);
        }
    }

    /// Adds synthesised children that split `parent`'s virtual interval
    /// in order: each `(name, layer, virtual ns)` starts where the
    /// previous one ended. Returns the first child's handle (children
    /// are consecutive), so a child can be split further.
    pub fn split(&mut self, parent: Tok, parts: &[(&'static str, &'static str, u64)]) -> Tok {
        let p = parent?;
        let (mut at, host_at, round) = self
            .spans
            .get(p as usize)
            .map(|s| (s.v_start_ns, s.host_end_ns, s.round))?;
        let first = self.spans.len() as u32;
        for &(name, layer, v_ns) in parts {
            self.spans.push(Span {
                kind: Kind::Split,
                name,
                layer,
                host_start_ns: host_at,
                host_end_ns: host_at,
                v_start_ns: at,
                v_end_ns: at + v_ns,
                parent: Some(p),
                round,
                count: 1,
            });
            at += v_ns;
        }
        Some(first)
    }

    /// Records one aggregate under the innermost open span.
    pub fn aggregate(&mut self, name: &'static str, layer: &'static str, agg: Agg, v_now: u64) {
        if !self.enabled || agg.count == 0 {
            return;
        }
        let now = self.host_now();
        self.spans.push(Span {
            kind: Kind::Aggregate,
            name,
            layer,
            host_start_ns: now.saturating_sub(agg.host_ns),
            host_end_ns: now,
            v_start_ns: v_now.saturating_sub(agg.v_ns),
            v_end_ns: v_now,
            parent: self.open.last().copied(),
            round: self.round,
            count: agg.count,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals over the spans named `name` whose round id satisfies
    /// `in_scope`.
    pub fn totals_where(&self, name: &str, in_scope: impl Fn(u32) -> bool) -> Totals {
        let mut t = Totals::default();
        for s in self
            .spans
            .iter()
            .filter(|s| s.name == name && in_scope(s.round))
        {
            t.count += s.count;
            t.host_ns += s.host_ns();
            t.v_ns += s.v_ns();
        }
        t
    }

    /// Checks the span-sum invariant: wherever a span has synthesised
    /// children, their virtual lengths add up to the parent's exactly.
    /// Returns the indices of parents for which they do not.
    pub fn split_violations(&self) -> Vec<u32> {
        let mut child_sum = vec![None::<u64>; self.spans.len()];
        for s in &self.spans {
            if let (Kind::Split, Some(p)) = (s.kind, s.parent) {
                if let Some(slot) = child_sum.get_mut(p as usize) {
                    *slot = Some(slot.unwrap_or(0) + s.v_ns());
                }
            }
        }
        child_sum
            .iter()
            .zip(&self.spans)
            .enumerate()
            .filter_map(|(i, (sum, parent))| match sum {
                Some(sum) if *sum != parent.v_ns() => Some(i as u32),
                _ => None,
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, workload: &str, out: &mut dyn Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"workload\":\"{workload}\",\"round\":{},\"name\":\"{}\",\
                 \"layer\":\"{}\",\"kind\":\"{:?}\",\"parent\":{parent},\"count\":{},\"host_start_ns\":{},\
                 \"host_end_ns\":{},\"v_start_ns\":{},\"v_end_ns\":{}}}",
                s.round,
                s.name,
                s.layer,
                s.kind,
                s.count,
                s.host_start_ns,
                s.host_end_ns,
                s.v_start_ns,
                s.v_end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let tok = t.begin("core.checkpoint", "core", 10);
        assert!(tok.is_none());
        t.split(tok, &[("x", "core", 5)]);
        t.aggregate(
            "apps.get",
            "apps",
            Agg {
                count: 3,
                host_ns: 9,
                v_ns: 9,
            },
            20,
        );
        t.end(tok, 30);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_and_totals() {
        let mut t = Tracer::new(true);
        t.set_round(7);
        let round = t.begin("bench.round", "bench", 0);
        let ck = t.begin("core.checkpoint", "core", 100);
        t.end(ck, 400);
        t.aggregate(
            "apps.get",
            "apps",
            Agg {
                count: 5,
                host_ns: 50,
                v_ns: 70,
            },
            400,
        );
        t.end(round, 500);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].round, 7);
        assert_eq!(t.totals_where("core.checkpoint", |_| true).v_ns, 300);
        assert_eq!(
            t.totals_where("apps.get", |round| round == 7),
            Totals {
                count: 5,
                host_ns: 50,
                v_ns: 70
            }
        );
        assert_eq!(
            t.totals_where("apps.get", |round| round != 7),
            Totals::default()
        );
    }

    #[test]
    fn split_children_sum_to_the_parent() {
        let mut t = Tracer::new(true);
        let ck = t.begin("core.checkpoint", "core", 1_000);
        t.end(ck, 1_900);
        t.split(
            ck,
            &[("a", "core", 200), ("b", "vm", 300), ("c", "objstore", 400)],
        );
        assert!(t.split_violations().is_empty());
        let kids: Vec<&Span> = t.spans().iter().filter(|s| s.parent == ck).collect();
        assert_eq!(kids.len(), 3);
        assert_eq!(kids[0].v_start_ns, 1_000);
        assert_eq!(kids[2].v_end_ns, 1_900);
        // A child list that does not cover the parent is reported.
        let bad = t.begin("core.restore", "core", 0);
        t.end(bad, 100);
        t.split(bad, &[("d", "core", 60)]);
        assert_eq!(t.split_violations(), vec![bad.unwrap()]);
    }
}
