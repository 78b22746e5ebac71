//! In-memory span recording and the self-time fold.
//!
//! A span is one timed call into a layer, recorded by the benchmark around
//! the call (nothing is added inside the library crates). Spans stay in
//! memory while a replay runs; [`fold`] turns a finished tree into
//! per-layer self time: a span's duration minus the part of its interval
//! that its direct children cover.

use std::time::Instant;

/// The layers the replay times. `Probe` marks measurement work (the
/// structure-hit re-solve that splits Howard from CSR/Tarjan): it is
/// excluded from the traced wall and from every other layer's self time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Routing,
    Experiment,
    Batch,
    Sampler,
    Mct,
    Engine,
    OverlapPoly,
    TpnBuild,
    RatioGraph,
    CsrTarjan,
    Howard,
    Stage,
    MapExact,
    MapAnneal,
    Probe,
}

impl Layer {
    pub const ALL: [Layer; 15] = [
        Layer::Routing,
        Layer::Experiment,
        Layer::Batch,
        Layer::Sampler,
        Layer::Mct,
        Layer::Engine,
        Layer::OverlapPoly,
        Layer::TpnBuild,
        Layer::RatioGraph,
        Layer::CsrTarjan,
        Layer::Howard,
        Layer::Stage,
        Layer::MapExact,
        Layer::MapAnneal,
        Layer::Probe,
    ];

    /// The name the report uses (the per-layer metric prefix).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Routing => "gen.routing",
            Layer::Experiment => "gen.experiment",
            Layer::Batch => "core.batch",
            Layer::Sampler => "gen.sampler",
            Layer::Mct => "core.mct",
            Layer::Engine => "core.engine",
            Layer::OverlapPoly => "core.overlap_poly",
            Layer::TpnBuild => "core.tpn_build",
            Layer::RatioGraph => "tpn.ratio_graph",
            Layer::CsrTarjan => "maxplus.csr_tarjan",
            Layer::Howard => "maxplus.howard",
            Layer::Stage => "core.batch.stage",
            Layer::MapExact => "map.exact",
            Layer::MapAnneal => "map.anneal",
            Layer::Probe => "probe",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub parent: Option<u32>,
    pub start: u64,
    pub end: u64,
}

/// Records spans on one thread. Spans nest through an explicit stack.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn open(&mut self, layer: Layer) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            layer,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: u32) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close in LIFO order");
        self.spans[id as usize].end = self.now();
    }

    /// Duration of closed span `id` in nanoseconds.
    pub fn duration(&self, id: u32) -> u64 {
        let s = self.spans[id as usize];
        s.end - s.start
    }

    /// Re-files span `id` under `layer` (for a call whose layer is only
    /// known once it returns).
    pub fn relabel(&mut self, id: u32, layer: Layer) {
        self.spans[id as usize].layer = layer;
    }

    /// Times `f` as one span of `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let id = self.open(layer);
        let out = f();
        self.close(id);
        out
    }

    /// Adds a closed child of `parent` lasting `dur` nanoseconds, placed at
    /// the end of the parent's interval (clipped to it). Used to split a
    /// span whose parts the benchmark cannot time separately.
    pub fn child_at_end(&mut self, parent: u32, layer: Layer, dur: u64) {
        let p = self.spans[parent as usize];
        let dur = dur.min(p.end - p.start);
        self.spans.push(Span {
            layer,
            parent: Some(parent),
            start: p.end - dur,
            end: p.end,
        });
    }

    /// Adds closed children of `parent` laid end to end from its start,
    /// each clipped to what is left of the parent's interval. Used for
    /// durations the library reports in aggregate (repwf-obs span totals).
    pub fn children_from_start(&mut self, parent: u32, parts: &[(Layer, u64)]) {
        let p = self.spans[parent as usize];
        let mut at = p.start;
        for &(layer, dur) in parts {
            let end = (at + dur).min(p.end);
            self.spans.push(Span {
                layer,
                parent: Some(parent),
                start: at,
                end,
            });
            at = end;
        }
    }

    /// Folds every recorded span into `into` and forgets them. No span
    /// may be open.
    pub fn drain_into(&mut self, into: &mut Totals) {
        assert!(self.stack.is_empty(), "drain with open spans");
        fold(&self.spans, into);
        self.spans.clear();
    }
}

/// Per-layer totals of a folded span set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub self_ns: [u64; Layer::ALL.len()],
    pub calls: [u64; Layer::ALL.len()],
    /// Summed duration of the root spans (spans without a parent).
    pub root_ns: u64,
}

impl Totals {
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }
}

/// Adds the self time and call count of every span in `spans` to `into`.
/// A span's self time is its duration minus the length of the union of
/// its direct children's intervals, each clipped to the parent.
pub fn fold(spans: &[Span], into: &mut Totals) {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        match s.parent {
            Some(p) => children[p as usize].push((s.start, s.end)),
            None => into.root_ns += s.end - s.start,
        }
    }
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = covered_ns(s.start, s.end, kids);
        into.self_ns[s.layer.index()] += (s.end - s.start) - covered;
        into.calls[s.layer.index()] += 1;
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            layer,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // experiment [0,100] ⊃ engine [10,90] ⊃ {mct [10,20], howard [30,80]}
        let spans = [
            span(Layer::Experiment, None, 0, 100),
            span(Layer::Engine, Some(0), 10, 90),
            span(Layer::Mct, Some(1), 10, 20),
            span(Layer::Howard, Some(1), 30, 80),
        ];
        let mut t = Totals::default();
        fold(&spans, &mut t);
        assert_eq!(t.self_ns(Layer::Experiment), 20);
        assert_eq!(t.self_ns(Layer::Engine), 20);
        assert_eq!(t.self_ns(Layer::Mct), 10);
        assert_eq!(t.self_ns(Layer::Howard), 50);
        assert_eq!(t.root_ns, 100);
        // Self times of a tree sum to its root durations.
        assert_eq!(t.self_ns.iter().sum::<u64>(), t.root_ns);
        assert_eq!(t.calls(Layer::Howard), 1);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        // Two children overlap on [40,60]; a third pokes past the parent.
        let spans = [
            span(Layer::Batch, None, 0, 100),
            span(Layer::Sampler, Some(0), 20, 60),
            span(Layer::Mct, Some(0), 40, 70),
            span(Layer::Stage, Some(0), 90, 130),
        ];
        let mut t = Totals::default();
        fold(&spans, &mut t);
        // Covered: [20,70] ∪ [90,100] = 60.
        assert_eq!(t.self_ns(Layer::Batch), 40);
    }

    #[test]
    fn tracer_splits_and_excludes_probe_time() {
        let mut tr = Tracer::new();
        let root = tr.open(Layer::Batch);
        let solve = tr.open(Layer::CsrTarjan);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.close(solve);
        tr.time(Layer::Probe, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        tr.close(root);
        tr.child_at_end(solve, Layer::Howard, 500_000);
        let mut t = Totals::default();
        tr.drain_into(&mut t);
        let solve_dur = t.self_ns(Layer::CsrTarjan) + t.self_ns(Layer::Howard);
        assert!(solve_dur >= 2_000_000);
        assert_eq!(t.self_ns(Layer::Howard), 500_000);
        let attributed: u64 = t.self_ns.iter().sum();
        assert_eq!(attributed, t.root_ns);
        assert!(t.self_ns(Layer::Probe) >= 1_000_000);
    }

    #[test]
    fn children_from_start_are_clipped_to_the_parent() {
        let spans = [span(Layer::MapExact, None, 0, 100)];
        let mut tr = Tracer {
            epoch: Instant::now(),
            spans: spans.to_vec(),
            stack: Vec::new(),
        };
        tr.children_from_start(0, &[(Layer::Mct, 30), (Layer::Howard, 90)]);
        let mut t = Totals::default();
        tr.drain_into(&mut t);
        assert_eq!(t.self_ns(Layer::Mct), 30);
        assert_eq!(t.self_ns(Layer::Howard), 70);
        assert_eq!(t.self_ns(Layer::MapExact), 0);
    }
}
