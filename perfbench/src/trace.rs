//! The benchmark's own spans: one per call it makes into a layer's public
//! API. Spans live in memory until the run ends and are then written out as
//! CSV. A span's self time is its duration minus the part of its interval
//! that its children cover, so overlapping children are counted once.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Spans of one request (a writer call, a replayed round, a solve) share
    /// this id.
    pub request: u64,
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder. Disabled logs record nothing and cost one
/// branch per call, so untraced runs go through the same code.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    /// High bits of every id this log hands out, so logs of different
    /// threads can be merged without clashes.
    tag: u64,
    next: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool, epoch: Instant, tag: u16) -> Self {
        Self {
            enabled,
            epoch,
            tag: u64::from(tag) << 48,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records one call that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.next += 1;
        let id = self.tag | self.next;
        if self.enabled {
            let span = Span {
                id,
                parent,
                request,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.push(span);
        }
        id
    }

    /// Reserves an id for a span whose children are recorded before it ends.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        self.tag | self.next
    }

    /// Records a span under an id taken from [`SpanLog::reserve`].
    pub fn record_reserved(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let span = Span {
                id,
                parent,
                request,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.push(span);
        }
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as CSV: `id,parent,request,name,start_ns,end_ns`.
    pub fn write_csv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id,parent,request,name,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of `span`: its duration minus the union of its children's
/// intervals, each clipped to the span.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    span.duration_ns() - covered
}

/// Per span name: `(count, total ns, self ns)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += self_time_ns(s, kids);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: if parent.is_some() { "child" } else { "parent" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let p = span(1, None, 0, 100);
        // [10,40) and [30,60) overlap: together they cover [10,60).
        let a = span(2, Some(1), 10, 40);
        let b = span(3, Some(1), 30, 60);
        // Nested inside a: adds nothing.
        let c = span(4, Some(1), 15, 20);
        assert_eq!(self_time_ns(&p, &[&a, &b, &c]), 50);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let p = span(1, None, 100, 200);
        let early = span(2, Some(1), 50, 120); // covers [100,120)
        let late = span(3, Some(1), 190, 400); // covers [190,200)
        let outside = span(4, Some(1), 300, 400);
        assert_eq!(self_time_ns(&p, &[&early, &late, &outside]), 70);
        assert_eq!(self_time_ns(&p, &[]), 100);
    }

    #[test]
    fn summary_splits_total_and_self_time_by_name() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
        ];
        let s = summarize(&spans);
        assert_eq!(s["parent"], (1, 100, 50));
        assert_eq!(s["child"], (2, 60, 60));
    }

    #[test]
    fn disabled_log_records_nothing_but_still_hands_out_ids() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(false, epoch, 1);
        let id = log.record("x", None, 0, epoch, epoch);
        assert_ne!(id, 0);
        assert!(log.spans().is_empty());
        let mut on = SpanLog::new(true, epoch, 2);
        let parent = on.reserve();
        let t = Instant::now();
        on.record("child", Some(parent), 7, t, t);
        on.record_reserved(parent, "parent", None, 7, t, t);
        assert_eq!(on.spans().len(), 2);
        assert_ne!(on.spans()[0].id >> 48, log.reserve() >> 48);
    }
}
