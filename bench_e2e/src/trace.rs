//! Wall-clock spans recorded by the benchmark around calls into each
//! layer, kept in memory and written out when the traced run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// An uplink's identity along the data path: the ledger key
/// `(device EUI, produced-at seconds)`.
pub type UplinkId = (u64, i64);

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `broker.publish`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The uplink the call worked on, when it worked on exactly one.
    pub uplink: Option<UplinkId>,
}

/// In-memory span recorder for one single-threaded driver.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str, uplink: Option<UplinkId>) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            uplink,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Name the uplink of an open span once the call has produced it.
    pub fn set_uplink(&mut self, id: u32, uplink: UplinkId) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.uplink = Some(uplink);
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Σ (span duration − the part of it covered by child spans), seconds.
    pub self_s: f64,
    /// Spans recorded under the name.
    pub calls: u64,
}

/// Per-name self times over the spans whose root span is named `root`
/// (every span when `root` is `None`). Parents precede their children,
/// as [`Tracer`] records them.
pub fn self_times(spans: &[Span], root: Option<&str>) -> BTreeMap<&'static str, Layer> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let p = s.parent as usize;
        if s.parent == NO_PARENT || p >= i {
            root_of.push(i);
        } else {
            children[p].push(i);
            root_of.push(root_of[p]);
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if root.is_some_and(|r| spans[root_of[i]].name != r) {
            continue;
        }
        let mut cover: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                let c = &spans[c];
                (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
            })
            .filter(|(a, b)| a < b)
            .collect();
        cover.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for (a, b) in cover {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        let layer = out.entry(s.name).or_default();
        layer.self_s += own as f64 / 1e9;
        layer.calls += 1;
    }
    out
}

/// Write spans as CSV: `id,name,start_ns,end_ns,parent,uplink`, with the
/// uplink as `<device hex>@<seconds>` and an empty parent for roots.
pub fn write_csv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id,name,start_ns,end_ns,parent,uplink")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            String::new()
        } else {
            s.parent.to_string()
        };
        let uplink = s
            .uplink
            .map(|(d, t)| format!("{d:016x}@{t}"))
            .unwrap_or_default();
        writeln!(
            w,
            "{i},{},{},{},{parent},{uplink}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            uplink: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_not_grandchildren() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30); root ⊃ a [50,60).
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 20, 30, 1),
            span("a", 50, 60, 0),
        ];
        let t = self_times(&spans, None);
        assert_eq!(t["root"].calls, 1);
        assert!((t["root"].self_s - 60e-9).abs() < 1e-15);
        assert_eq!(t["a"].calls, 2);
        assert!((t["a"].self_s - 30e-9).abs() < 1e-15);
        assert!((t["b"].self_s - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children [10,30) and [20,40) overlap; [90,120) overhangs the end.
        let spans = [
            span("p", 0, 100, NO_PARENT),
            span("c", 10, 30, 0),
            span("c", 20, 40, 0),
            span("c", 90, 120, 0),
        ];
        let t = self_times(&spans, None);
        assert!((t["p"].self_s - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn root_filter_keeps_one_tree() {
        let spans = [
            span("advance", 0, 10, NO_PARENT),
            span("x", 0, 4, 0),
            span("query", 10, 20, NO_PARENT),
            span("x", 10, 17, 2),
        ];
        let t = self_times(&spans, Some("advance"));
        assert!((t["x"].self_s - 4e-9).abs() < 1e-15);
        assert!(!t.contains_key("query"));
    }

    #[test]
    fn tracer_nests_by_open_stack() {
        let mut tr = Tracer::new();
        let a = tr.enter("a", None);
        let b = tr.enter("b", Some((7, 300)));
        tr.exit(b);
        let c = tr.enter("c", None);
        tr.set_uplink(c, (8, 600));
        tr.exit(c);
        tr.exit(a);
        let s = tr.spans();
        assert_eq!(s[b as usize].parent, a);
        assert_eq!(s[c as usize].parent, a);
        assert_eq!(s[c as usize].uplink, Some((8, 600)));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
    }
}
