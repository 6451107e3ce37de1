//! The harness-side span recorder of the traced run.
//!
//! Spans are recorded around the harness's own calls into each crate's
//! public functions — never inside the program — and kept in memory until
//! the run ends, when they are written out as JSON lines. Counts are taken
//! at the same boundaries and hang off the span that was open when they
//! were taken. A recorder that is switched off records nothing and reads no
//! clock, which is how the end-to-end metrics are measured.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. Spans of one iteration of a workload share a
/// `trace_id`; `parent_id` is the span that was open when this one began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub trace_id: String,
    pub span_id: u64,
    pub parent_id: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: BTreeMap<String, u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, returned by [`Recorder::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    trace_id: String,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            trace_id: String::new(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between spans (never inside one).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(
            self.stack.is_empty(),
            "recording toggled inside an open span"
        );
        self.enabled = enabled;
    }

    /// Start a new trace (`<workload>/<iteration>`): spans entered from now
    /// on carry this identifier.
    pub fn begin_trace(&mut self, trace_id: String) {
        if self.enabled {
            self.trace_id = trace_id;
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let parent_id = self.stack.last().map(|&p| self.spans[p].span_id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            trace_id: self.trace_id.clone(),
            span_id: idx as u64 + 1,
            parent_id,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            counts: BTreeMap::new(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span; spans close in the reverse of the order they opened.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(
            top,
            Some(idx),
            "span `{}` closed out of order",
            self.spans[idx].name
        );
        self.spans[idx].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Add `n` to the count `key` of the innermost open span.
    pub fn count(&mut self, key: &str, n: u64) {
        if let Some(&idx) = self.stack.last() {
            *self.spans[idx].counts.entry(key.to_string()).or_default() += n;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in spans named `name`, summed per trace, in trace
    /// order: one sample per iteration that entered the span at all.
    pub fn busy_by_trace(&self, name: &str) -> Vec<f64> {
        self.fold_by_trace(name, |s| s.duration_ns())
            .into_iter()
            .map(|ns| ns as f64 / 1e9)
            .collect()
    }

    /// Every duration of a span named `name`, in seconds: one per call.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// The count `key` of spans named `name`, summed per trace.
    pub fn count_by_trace(&self, name: &str, key: &str) -> Vec<f64> {
        self.fold_by_trace(name, |s| s.counts.get(key).copied().unwrap_or(0))
            .into_iter()
            .map(|n| n as f64)
            .collect()
    }

    fn fold_by_trace(&self, name: &str, f: impl Fn(&Span) -> u64) -> Vec<u64> {
        let mut order: Vec<&str> = Vec::new();
        let mut sums: BTreeMap<&str, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            if !sums.contains_key(s.trace_id.as_str()) {
                order.push(&s.trace_id);
            }
            *sums.entry(&s.trace_id).or_default() += f(s);
        }
        order.into_iter().map(|t| sums[t]).collect()
    }
}

/// Self time of every span, in input order: its duration minus the part of
/// its interval that its child spans cover. Children are clipped to the
/// parent and overlapping children are counted once, so a self time is
/// never negative and self times under one parent never sum past it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent_id {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            let mut kids = children.remove(&s.span_id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// One JSON object per span, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str("{\"trace_id\":\"");
        escape(&s.trace_id, &mut out);
        out.push_str(&format!("\",\"span_id\":{},\"parent_id\":", s.span_id));
        match s.parent_id {
            Some(p) => out.push_str(&p.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"name\":\"");
        escape(&s.name, &mut out);
        out.push_str(&format!(
            "\",\"start_ns\":{},\"end_ns\":{},\"counts\":{{",
            s.start_ns, s.end_ns
        ));
        for (i, (k, v)) in s.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape(k, &mut out);
            out.push_str(&format!("\":{v}"));
        }
        out.push_str("}}\n");
    }
    out
}

/// Reader for exactly what [`to_jsonl`] writes (used by the round-trip test
/// and by anything that wants the spans back).
pub fn from_jsonl(text: &str) -> Result<Vec<Span>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_line)
        .collect()
}

struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    fn eat(&mut self, token: &str) -> Result<(), String> {
        self.rest = self.rest.strip_prefix(token).ok_or_else(|| {
            format!(
                "expected `{token}` at `{}`",
                &self.rest[..self.rest.len().min(24)]
            )
        })?;
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.rest = &self.rest[i + 1..];
                    return Ok(out);
                }
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        let code = u32::from_str_radix(&hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                    }
                    Some(e) => out.push(e),
                    None => break,
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<u64, String> {
        let digits = self.rest.chars().take_while(char::is_ascii_digit).count();
        let (num, rest) = self.rest.split_at(digits);
        self.rest = rest;
        num.parse()
            .map_err(|_| format!("expected a number at `{rest}`"))
    }

    fn key(&mut self, name: &str) -> Result<(), String> {
        self.eat(&format!("\"{name}\":"))
    }
}

fn parse_line(line: &str) -> Result<Span, String> {
    let mut c = Cursor { rest: line.trim() };
    c.eat("{")?;
    c.key("trace_id")?;
    let trace_id = c.string()?;
    c.eat(",")?;
    c.key("span_id")?;
    let span_id = c.number()?;
    c.eat(",")?;
    c.key("parent_id")?;
    let parent_id = if c.rest.starts_with("null") {
        c.eat("null")?;
        None
    } else {
        Some(c.number()?)
    };
    c.eat(",")?;
    c.key("name")?;
    let name = c.string()?;
    c.eat(",")?;
    c.key("start_ns")?;
    let start_ns = c.number()?;
    c.eat(",")?;
    c.key("end_ns")?;
    let end_ns = c.number()?;
    c.eat(",")?;
    c.key("counts")?;
    c.eat("{")?;
    let mut counts = BTreeMap::new();
    while !c.rest.starts_with('}') {
        if !counts.is_empty() {
            c.eat(",")?;
        }
        let k = c.string()?;
        c.eat(":")?;
        counts.insert(k, c.number()?);
    }
    c.eat("}}")?;
    Ok(Span {
        trace_id,
        span_id,
        parent_id,
        name,
        start_ns,
        end_ns,
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            trace_id: "t/0".into(),
            span_id: id,
            parent_id: parent,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
            counts: BTreeMap::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 with siblings 10..30 and 40..70; the second sibling
        // has a child 50..60 of its own
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 40, 70),
            span(4, Some(3), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn self_time_is_never_negative() {
        // a zero-length child, a child that outlives its parent, and two
        // children that overlap each other: covered time is clipped to the
        // parent and counted once
        let spans = vec![
            span(1, None, 100, 200),
            span(2, Some(1), 150, 150),
            span(3, Some(1), 120, 180),
            span(4, Some(1), 160, 260),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 20);
        assert_eq!(selfs[1], 0);
        // children of one parent never sum past it
        let spans = vec![
            span(1, None, 0, 10),
            span(2, Some(1), 0, 10),
            span(3, Some(1), 0, 10),
        ];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn recorder_nests_spans_and_attaches_counts_to_the_open_span() {
        let mut rec = Recorder::new(true);
        rec.begin_trace("w/0".into());
        let outer = rec.enter("outer");
        rec.count("rows", 3);
        let got = rec.time("inner", || 7);
        rec.count("rows", 2);
        rec.exit(outer);
        rec.begin_trace("w/1".into());
        rec.time("inner", || ());
        assert_eq!(got, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].counts["rows"], 5);
        assert_eq!(spans[1].parent_id, Some(spans[0].span_id));
        assert_eq!(spans[2].parent_id, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(rec.busy_by_trace("inner").len(), 2);
        assert_eq!(rec.count_by_trace("outer", "rows"), vec![5.0]);
        for (s, own) in spans.iter().zip(self_times_ns(spans)) {
            assert!(own <= s.duration_ns());
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        rec.begin_trace("w/0".into());
        let open = rec.enter("outer");
        rec.count("rows", 1);
        assert_eq!(rec.time("inner", || 1), 1);
        rec.exit(open);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn jsonl_round_trips() {
        let mut a = span(1, None, 5, 90);
        a.trace_id = "edit \"re\"wrangle\\3".into();
        a.counts.insert("rows".into(), 42);
        a.counts.insert("fixes".into(), 0);
        let mut b = span(2, Some(1), 6, 7);
        b.name = "tab\there".into();
        let spans = vec![a, b];
        let text = to_jsonl(&spans);
        assert_eq!(text.lines().count(), 2);
        assert_eq!(from_jsonl(&text).unwrap(), spans);
        assert!(from_jsonl("{\"trace_id\":3}").is_err());
    }
}
