//! In-memory spans for the staged replay: one span per layer boundary
//! crossed, `{name, start, end, parent, tuple seq}`, recorded from the
//! benchmark's side of the call and aggregated after the replay ends.

use std::time::Instant;

/// The layer boundaries the staged replay crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    EngineArrival,
    TransportSend,
    WireEncode,
    SockWrite,
    SockRead,
    WireDecode,
    EngineNet,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::EngineArrival,
        Layer::TransportSend,
        Layer::WireEncode,
        Layer::SockWrite,
        Layer::SockRead,
        Layer::WireDecode,
        Layer::EngineNet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::EngineArrival => "engine.arrival",
            Layer::TransportSend => "transport.send",
            Layer::WireEncode => "wire.encode",
            Layer::SockWrite => "sock.write",
            Layer::SockRead => "sock.read",
            Layer::WireDecode => "wire.decode",
            Layer::EngineNet => "engine.net",
        }
    }
}

/// Index of "no parent" in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside, or [`ROOT`].
    pub parent: u32,
    /// Sequence number of the tuple that caused the span.
    pub seq: u64,
}

/// What the staged replay reports span boundaries to. The untraced replay
/// uses [`NoTrace`], which compiles to nothing, so the two replays run the
/// same code and differ only by the recording.
pub trait Probe {
    fn enter(&mut self, layer: Layer, seq: u64);
    fn exit(&mut self);
}

/// The probe of the untraced replay.
pub struct NoTrace;

impl Probe for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _layer: Layer, _seq: u64) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// Records spans in memory.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Probe for Tracer {
    fn enter(&mut self, layer: Layer, seq: u64) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            seq,
        });
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i as usize].end_ns = end_ns;
    }
}

/// Per-layer totals of one traced replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Spans recorded for the layer.
    pub count: u64,
    /// Sum of their self times: duration minus the part covered by child
    /// spans.
    pub self_ns: u64,
}

/// Self time of every span, in span order: its duration minus the
/// durations of the spans that name it as parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != ROOT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Aggregates spans into per-layer counts and self times, indexed like
/// [`Layer::ALL`].
pub fn layer_totals(spans: &[Span]) -> [LayerTotal; 7] {
    let mut totals = [LayerTotal::default(); 7];
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = &mut totals[s.layer as usize];
        t.count += 1;
        t.self_ns += own;
    }
    totals
}

/// Renders spans as JSON lines, one span per line.
pub fn spans_to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"seq\":{}}}\n",
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            parent,
            s.seq
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            seq: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // arrival [0,100] ⊃ send [10,40] ⊃ encode [12,20], write [20,38];
        // arrival also ⊃ a second send [40,70] adjacent to the first;
        // then a root-level net span [100,130].
        let spans = [
            span(Layer::EngineArrival, 0, 100, ROOT),
            span(Layer::TransportSend, 10, 40, 0),
            span(Layer::WireEncode, 12, 20, 1),
            span(Layer::SockWrite, 20, 38, 1),
            span(Layer::TransportSend, 40, 70, 0),
            span(Layer::EngineNet, 100, 130, ROOT),
        ];
        assert_eq!(self_times(&spans), vec![40, 4, 8, 18, 30, 30]);
        let totals = layer_totals(&spans);
        assert_eq!(
            totals[Layer::TransportSend as usize],
            LayerTotal {
                count: 2,
                self_ns: 34
            }
        );
        // Self times add up to the time covered by root spans.
        let covered: u64 = totals.iter().map(|t| t.self_ns).sum();
        assert_eq!(covered, 130);
    }

    #[test]
    fn tracer_links_children_to_the_open_span() {
        let mut t = Tracer::new();
        t.enter(Layer::EngineArrival, 7);
        t.enter(Layer::TransportSend, 7);
        t.exit();
        t.exit();
        t.enter(Layer::EngineNet, 7);
        t.exit();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (ROOT, 0, ROOT));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(s.iter().all(|x| x.seq == 7));
        let line = spans_to_jsonl(&s[1..2]);
        assert!(line.starts_with("{\"name\":\"transport.send\""), "{line}");
        assert!(line.contains("\"parent\":0"), "{line}");
    }
}
