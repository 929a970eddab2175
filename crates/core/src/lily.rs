//! The Lily layout-driven technology mapper (Sections 3 and 4 of the
//! paper).
//!
//! Lily runs the same cone-by-cone dynamic program as the baseline, but
//! each candidate match is *placed* before it is priced:
//!
//! 1. the candidate gate receives a `mapPosition` via the configured
//!    [`PositionUpdate`] rule;
//! 2. each fanin's prospective net is priced from its fanin rectangle
//!    over true fanouts (area mode: half-perimeter × Chung–Hwang factor
//!    or spanning tree, divided by the net's sink count — its true
//!    fanouts plus the candidate gate);
//! 3. in delay mode, the fanins' output arrival times are *re-evaluated*
//!    from their stored block arrival times under the now-known load
//!    (pin capacitances of true fanouts plus placement-derived wiring
//!    capacitance), then the candidate's own arrival is computed against
//!    an estimated output load (paper Section 4.4, steps 1–5).
//!
//! Cones are processed in the exit-line-minimizing order of Section 3.5
//! unless disabled.
//!
//! Pricing is allocation-free once its buffers have grown: each solve
//! collects the true fanouts of every node its matches read into one
//! table, and each match filters that table by its own covered set
//! instead of re-deriving the lists from the engine. The filtered lists
//! are the [`crate::rects::true_fanouts`] lists, in the same order, so
//! every cost is bit-identical.
//!
//! Most matches are never priced in full. After the first match at a
//! node, a match whose exact lower bound cannot beat the best key so
//! far is skipped; every skipped match would have lost, so the cover is
//! bit-identical. In area mode the bound is the gate's area plus the
//! solved fanins' costs, without the match's own nets: the nets only add
//! non-negative wire to a non-negative weight, and IEEE rounding is
//! monotone. In delay mode it is the arrival with every fanin net
//! carrying only the candidate's pin and the output only the unmapped
//! fanouts' pins: the real loads add non-negative caps through
//! non-negative resistances, and one helper computes both arrivals. The
//! invariants are checked at the door: a map rejects a negative or
//! non-finite wire weight, and a library a negative or non-finite
//! `cap_h`, `cap_v` or `pin_cap`. Test builds price every skipped match
//! in full and assert that it would not have won.

use crate::cover::{Engine, MapMode, MapResult, Partition, Scope};
use crate::error::MapError;
use crate::matching::{Match, MatchSlot};
use crate::position::{center_of_mass, manhattan_median_with, PositionUpdate};
use crate::rects::{fanin_rect, fanout_points, is_input, unmapped_fanout_count};
use lily_cells::{GateId, Library};
use lily_netlist::{NodeState, SubjectGraph, SubjectNodeId};
use lily_place::{Point, Rect};
use lily_route::{chung_hwang_factor, net_length_with, PrimScratch, WireModel};
use lily_timing::{block_arrival, ld_arrival, Arrival};

/// Layout-related knobs of the Lily mapper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutOptions {
    /// Cost units per µm of estimated wire in area mode. The natural
    /// choice is the routing pitch (µm² of chip area per µm of wire);
    /// Section 5 notes that re-running with a reduced weight can help
    /// when the estimate misleads. Must be finite and non-negative; a
    /// map rejects any other value with [`MapError::DegenerateInput`].
    pub wire_weight: f64,
    /// Net-length model (paper §3.4 offers both).
    pub wire_model: WireModel,
    /// Dynamic position-update rule (paper §3.2).
    pub position_update: PositionUpdate,
    /// Order cones by the exit-line heuristic (paper §3.5).
    pub cone_ordering: bool,
}

impl Default for LayoutOptions {
    fn default() -> Self {
        Self {
            wire_weight: 2.0,
            wire_model: WireModel::HalfPerimeterSteiner,
            position_update: PositionUpdate::CmFans,
            cone_ordering: true,
        }
    }
}

/// Full option set of a Lily run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MapOptions {
    /// Optimization objective.
    pub mode: MapMode,
    /// Covering partition (the paper uses cones).
    pub partition: Partition,
    /// Layout knobs.
    pub layout: LayoutOptions,
}

/// The layout-driven technology mapper.
///
/// ```
/// use lily_cells::Library;
/// use lily_core::LilyMapper;
/// use lily_netlist::SubjectGraph;
/// use lily_place::Point;
///
/// # fn main() -> Result<(), lily_core::MapError> {
/// let lib = Library::big();
/// let mut g = SubjectGraph::new("demo");
/// let a = g.add_input("a");
/// let b = g.add_input("b");
/// let n = g.nand2(a, b);
/// g.set_output("y", n);
/// // placePositions for every subject node (pads for inputs), plus
/// // output pad positions.
/// let place = vec![Point::new(0.0, 0.0), Point::new(0.0, 20.0), Point::new(10.0, 10.0)];
/// let out_pads = vec![Point::new(30.0, 10.0)];
/// let result = LilyMapper::new(&lib).map(&g, &place, &out_pads)?;
/// assert_eq!(result.mapped.cell_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LilyMapper<'l> {
    lib: &'l Library,
    options: MapOptions,
}

/// Per-node dynamic-programming solution data.
#[derive(Debug, Clone, Default)]
struct Solution {
    a_cost: f64,
    w_cost: f64,
    blocks: Vec<Arrival>,
    gate: Option<GateId>,
    map_pos: Point,
}

impl Solution {
    /// Whether the two solutions agree bit for bit in everything a
    /// reader of the node can observe.
    fn same_bits(&self, other: &Self) -> bool {
        let bits = |x: f64, y: f64| x.to_bits() == y.to_bits();
        bits(self.a_cost, other.a_cost)
            && bits(self.w_cost, other.w_cost)
            && self.gate == other.gate
            && bits(self.map_pos.x, other.map_pos.x)
            && bits(self.map_pos.y, other.map_pos.y)
            && self.blocks.iter().map(|b| b.to_bits()).eq(other.blocks.iter().map(|b| b.to_bits()))
    }
}

impl<'l> LilyMapper<'l> {
    /// Creates a mapper with the paper's default configuration
    /// (area mode, cones, CM-of-Fans, half-perimeter × Steiner factor,
    /// cone ordering on).
    pub fn new(lib: &'l Library) -> Self {
        Self { lib, options: MapOptions::default() }
    }

    /// Sets the objective.
    #[must_use]
    pub fn mode(mut self, mode: MapMode) -> Self {
        self.options.mode = mode;
        self
    }

    /// Sets the covering partition.
    #[must_use]
    pub fn partition(mut self, partition: Partition) -> Self {
        self.options.partition = partition;
        self
    }

    /// Replaces the layout options.
    #[must_use]
    pub fn layout(mut self, layout: LayoutOptions) -> Self {
        self.options.layout = layout;
        self
    }

    /// The current options.
    pub fn options(&self) -> &MapOptions {
        &self.options
    }

    /// Maps `g` guided by `place` (a `placePosition` for every subject
    /// node, pads included) and `output_pads` (a position per primary
    /// output).
    ///
    /// # Errors
    ///
    /// [`MapError::MissingPlacement`] on length mismatches,
    /// [`MapError::DegenerateInput`] for a negative or non-finite
    /// [`LayoutOptions::wire_weight`], plus the matching errors of
    /// [`crate::MatchIndex::build`].
    pub fn map(
        &self,
        g: &SubjectGraph,
        place: &[Point],
        output_pads: &[Point],
    ) -> Result<MapResult, MapError> {
        self.map_with(g, place, output_pads, &MatchSlot::default())
    }

    /// [`LilyMapper::map`] over the structural match index of `g` that
    /// `matches` holds, built there first if no earlier mapper did (the
    /// flow shares one slot between the mappers of a comparison).
    ///
    /// # Errors
    ///
    /// As [`LilyMapper::map`].
    pub fn map_with(
        &self,
        g: &SubjectGraph,
        place: &[Point],
        output_pads: &[Point],
        matches: &MatchSlot,
    ) -> Result<MapResult, MapError> {
        check_inputs(g, place, output_pads, &self.options.layout)?;
        let e = Engine::with_index(g, self.lib, matches.get_or_build(g, self.lib)?);
        run_placed_dp(e, &self.options, place, output_pads)
    }
}

/// Validates the inputs of a placed map: the placement vectors against
/// the graph shape, and the wire weight. A negative or non-finite
/// weight would make the area key fall as wire is added, and the DP's
/// key bound needs it to never fall.
pub(crate) fn check_inputs(
    g: &SubjectGraph,
    place: &[Point],
    output_pads: &[Point],
    layout: &LayoutOptions,
) -> Result<(), MapError> {
    if place.len() != g.node_count() {
        return Err(MapError::MissingPlacement { expected: g.node_count(), got: place.len() });
    }
    if output_pads.len() != g.outputs().len() {
        return Err(MapError::MissingPlacement {
            expected: g.outputs().len(),
            got: output_pads.len(),
        });
    }
    if !(layout.wire_weight.is_finite() && layout.wire_weight >= 0.0) {
        return Err(MapError::DegenerateInput {
            stage: "map",
            message: format!(
                "wire_weight must be finite and non-negative, got {}",
                layout.wire_weight
            ),
        });
    }
    Ok(())
}

/// One true fanout of a node, as [`true_fanouts`] reports it.
///
/// [`true_fanouts`]: crate::rects::true_fanouts
#[derive(Debug, Clone, Copy)]
struct Fanout {
    /// The unmapped subject fanout; `None` for a committed cell or a
    /// primary-output pad, which no match can absorb.
    node: Option<SubjectNodeId>,
    pos: Point,
    cap: f64,
}

/// The true fanouts of every node the matches at one node read (their
/// inputs and absorbed nodes), collected once per solve.
///
/// Life states and committed consumers cannot change inside a solve, so
/// a match only has to drop the fanouts its own covered set absorbs:
/// [`FanoutTable::exclude`] stamps the covered nodes with a fresh
/// generation and [`FanoutTable::fanouts`] filters on the stamp. Each
/// node keeps [`true_fanouts`] order (committed consumers, unmapped
/// fanouts, output pads), so every cost sees the same points and caps
/// in the same order as pricing from fresh [`true_fanouts`] lists.
///
/// [`true_fanouts`]: crate::rects::true_fanouts
#[derive(Debug)]
struct FanoutTable {
    /// Solve generation in which each node's entries were collected.
    filled_in: Vec<u64>,
    /// Each node's entries: `entries[range[u].0..range[u].1]`.
    range: Vec<(usize, usize)>,
    entries: Vec<Fanout>,
    solve: u64,
    /// Match generation that last covered each node.
    covered_in: Vec<u64>,
    generation: u64,
}

impl FanoutTable {
    fn new(nodes: usize) -> Self {
        Self {
            filled_in: vec![0; nodes],
            range: vec![(0, 0); nodes],
            entries: Vec::new(),
            solve: 0,
            covered_in: vec![0; nodes],
            generation: 0,
        }
    }

    /// Collects, with nothing excluded, the true fanouts of every node
    /// read by the matches at `v`.
    fn build(&mut self, e: &Engine, v: SubjectNodeId, place: &[Point], output_pads: &[Point]) {
        self.solve += 1;
        self.entries.clear();
        let base_cap = e.lib.technology().pin_cap;
        for m in e.idx.at(v) {
            for &u in m.inputs.iter().chain(&m.covered[1..]) {
                if self.filled_in[u.index()] == self.solve {
                    continue;
                }
                self.filled_in[u.index()] = self.solve;
                let start = self.entries.len();
                for &(cell, pin) in &e.committed_consumers[u.index()] {
                    let c = e.mapped.cell(cell);
                    let cap = e.lib.gate(c.gate).pins()[pin].capacitance;
                    self.entries.push(Fanout { node: None, pos: Point::from(c.position), cap });
                }
                for &w in &e.fanouts[u.index()] {
                    if matches!(e.life.state(w), NodeState::Egg | NodeState::Nestling) {
                        let pos = place[w.index()];
                        self.entries.push(Fanout { node: Some(w), pos, cap: base_cap });
                    }
                }
                for &oi in e.outputs_of(u) {
                    self.entries.push(Fanout { node: None, pos: output_pads[oi], cap: 0.0 });
                }
                self.range[u.index()] = (start, self.entries.len());
            }
        }
    }

    /// Starts pricing a match that absorbs `covered`.
    fn exclude(&mut self, covered: &[SubjectNodeId]) {
        self.generation += 1;
        for &c in covered {
            self.covered_in[c.index()] = self.generation;
        }
    }

    /// The true fanouts of `u` outside the covered set of the match
    /// being priced.
    fn fanouts(&self, u: SubjectNodeId) -> impl Iterator<Item = &Fanout> {
        let (start, end) = self.range[u.index()];
        self.entries[start..end]
            .iter()
            .filter(|f| f.node.is_none_or(|w| self.covered_in[w.index()] != self.generation))
    }
}

/// The filtered true-fanout lists of one match's inputs, flattened:
/// input `i` owns `pos[end[i - 1]..end[i]]` and the parallel caps.
#[derive(Debug, Default)]
struct FanLists {
    pos: Vec<Point>,
    cap: Vec<f64>,
    end: Vec<usize>,
}

impl FanLists {
    fn fill(&mut self, table: &FanoutTable, inputs: &[SubjectNodeId]) {
        self.pos.clear();
        self.cap.clear();
        self.end.clear();
        for &u in inputs {
            for f in table.fanouts(u) {
                self.pos.push(f.pos);
                self.cap.push(f.cap);
            }
            self.end.push(self.pos.len());
        }
    }

    fn range(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.end[i - 1] };
        start..self.end[i]
    }

    fn positions(&self, i: usize) -> &[Point] {
        &self.pos[self.range(i)]
    }

    fn caps(&self, i: usize) -> &[f64] {
        &self.cap[self.range(i)]
    }
}

/// The buffers of pricing, reused across matches and solves so that
/// pricing a match allocates nothing once they have grown: the input
/// positions, the fanin lists, the point set of a position update or
/// priced net, the MedianFans rectangles and coordinates, the
/// tree-length scratch and the delay-mode block arrivals.
#[derive(Debug, Default)]
struct Scratch {
    in_pos: Vec<Point>,
    fans: FanLists,
    pts: Vec<Point>,
    rects: Vec<Rect>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    tree: PrimScratch,
    blocks: Vec<Arrival>,
}

/// A fully priced match: its DP key and tiebreak, the costs it would
/// store and its `mapPosition`. The block arrivals stay in
/// [`Scratch::blocks`].
#[derive(Debug, Clone, Copy)]
struct Priced {
    key: f64,
    tiebreak: f64,
    a_cost: f64,
    w_cost: f64,
    pos: Point,
}

/// Whether a match priced at `(key, tiebreak)` replaces the best match
/// so far, `best` being its `(key, tiebreak)`: a key lower by more than
/// 1e-12, or a tied key with a tiebreak lower by more than 1e-12.
fn improves(key: f64, tiebreak: f64, best: Option<(f64, f64)>) -> bool {
    best.is_none_or(|(bk, bt)| key < bk - 1e-12 || (key < bk + 1e-12 && tiebreak < bt - 1e-12))
}

/// Whether a match whose key is at least `bound` can never replace a
/// best match of key `bk` under [`improves`]. Area mode's tiebreak is
/// always 0, so only a key below `bk - 1e-12` wins there; in delay mode
/// a key below `bk + 1e-12` may still win on its tiebreak.
fn cannot_improve(mode: MapMode, bound: f64, bk: f64) -> bool {
    match mode {
        MapMode::Area => bound >= bk - 1e-12,
        MapMode::Delay => bound >= bk + 1e-12,
    }
}

/// What every match at one node is priced against: the DP state of the
/// solved nodes and the sinks of the node's output net.
struct Site<'a> {
    e: &'a Engine<'a>,
    sol: &'a [Solution],
    place: &'a [Point],
    output_pads: &'a [Point],
    options: &'a MapOptions,
    v: SubjectNodeId,
    /// The sinks of `v`'s output net, the same for every match.
    fo_pts: Vec<Point>,
    /// `v`'s still-unmapped fanouts, the same for every match.
    unmapped_fanouts: usize,
}

impl<'a> Site<'a> {
    fn new(
        e: &'a Engine<'a>,
        sol: &'a [Solution],
        place: &'a [Point],
        output_pads: &'a [Point],
        options: &'a MapOptions,
        v: SubjectNodeId,
    ) -> Self {
        let fo_pts = fanout_points(e, v, place, output_pads);
        let unmapped_fanouts = unmapped_fanout_count(e, v);
        Self { e, sol, place, output_pads, options, v, fo_pts, unmapped_fanouts }
    }

    fn fanout_rect(&self, gate_pos: Point) -> Rect {
        let mut r = Rect::at(gate_pos);
        for &p in &self.fo_pts {
            r.expand_to(p);
        }
        r
    }

    /// The costs `m` inherits (Section 3.4): its gate's area plus the
    /// area and wire costs of its solved fanins. Primary inputs and hawks
    /// add nothing; their cost is sunk.
    fn inherited(&self, m: &Match<'_>) -> (f64, f64) {
        let mut a_cost = self.e.lib.gate(m.gate).area();
        let mut w_cost = 0.0;
        for &vi in m.inputs {
            if !is_input(self.e, vi) && self.e.life.state(vi) != NodeState::Hawk {
                a_cost += self.sol[vi.index()].a_cost;
                w_cost += self.sol[vi.index()].w_cost;
            }
        }
        (a_cost, w_cost)
    }

    /// A lower bound on the key [`Site::price`] gives `m`, from its
    /// inherited costs alone: in area mode the key without `m`'s own
    /// nets, in delay mode the arrival with every net at its minimum
    /// load.
    fn key_bound(
        &self,
        m: &Match<'_>,
        (a_cost, w_cost): (f64, f64),
        blocks: &mut Vec<Arrival>,
    ) -> f64 {
        match self.options.mode {
            MapMode::Area => a_cost + self.options.layout.wire_weight * w_cost,
            MapMode::Delay => {
                let gate = self.e.lib.gate(m.gate);
                let min_out = self.unmapped_fanouts as f64 * self.e.lib.technology().pin_cap;
                self.arrival(m, |pi| gate.pins()[pi].capacitance, min_out, blocks).worst()
            }
        }
    }

    /// The output arrival of `m` (Section 4.4, steps 1–4) when fanin
    /// `pi`'s net carries `fanin_load(pi)` and `m`'s own output drives
    /// `out_load`; the block arrivals are left in `blocks`.
    fn arrival(
        &self,
        m: &Match<'_>,
        fanin_load: impl Fn(usize) -> f64,
        out_load: f64,
        blocks: &mut Vec<Arrival>,
    ) -> Arrival {
        let lib = self.e.lib;
        let gate = lib.gate(m.gate);
        blocks.clear();
        for (pi, &vi) in m.inputs.iter().enumerate() {
            // Step 1: re-evaluate the fanin's output arrival under its
            // load.
            let t_in = if is_input(self.e, vi) {
                Arrival::ZERO
            } else {
                let s = &self.sol[vi.index()];
                let fgate = lib.gate(s.gate.expect("solved"));
                let load = fanin_load(pi);
                let mut t = Arrival::NEG_INF;
                for (bj, b) in s.blocks.iter().enumerate() {
                    t = t.max(ld_arrival(*b, &fgate.pins()[bj], load));
                }
                t
            };
            // Step 2: block arrival at the candidate.
            blocks.push(block_arrival(t_in, &gate.pins()[pi], gate.unateness(pi)));
        }
        // Step 4: output arrival.
        let mut out = Arrival::NEG_INF;
        for (pi, b) in blocks.iter().enumerate() {
            out = out.max(ld_arrival(*b, &gate.pins()[pi], out_load));
        }
        out
    }

    /// Places and fully prices `m` on top of its inherited costs.
    fn price(
        &self,
        m: &Match<'_>,
        (a_cost, mut w_cost): (f64, f64),
        table: &mut FanoutTable,
        s: &mut Scratch,
    ) -> Priced {
        let (e, place, lay) = (self.e, self.place, self.options.layout);
        let gate = e.lib.gate(m.gate);

        // Input positions: pads for PIs, mapPositions for solved nodes
        // (hawks keep theirs).
        s.in_pos.clear();
        s.in_pos.extend(m.inputs.iter().map(|&vi| {
            if is_input(e, vi) {
                place[vi.index()]
            } else {
                self.sol[vi.index()].map_pos
            }
        }));

        // Fanin rectangles / true fanouts (shared by both the position
        // update and the wire cost).
        table.exclude(m.covered);
        s.fans.fill(table, m.inputs);
        #[cfg(test)]
        tests::check_against_oracle(e, m, table, &s.fans, place, self.output_pads);

        // 1. Position the candidate (Section 3.2).
        let fallback = place[self.v.index()];
        let pos = match lay.position_update {
            PositionUpdate::CmMerged => {
                s.pts.clear();
                s.pts.extend(m.covered.iter().map(|c| place[c.index()]));
                center_of_mass(&s.pts, fallback)
            }
            PositionUpdate::CmFans => {
                s.pts.clear();
                s.pts.extend_from_slice(&s.in_pos);
                s.pts.extend_from_slice(&self.fo_pts);
                center_of_mass(&s.pts, fallback)
            }
            PositionUpdate::MedianFans => {
                s.rects.clear();
                for (i, &p) in s.in_pos.iter().enumerate() {
                    let mut r = Rect::at(p);
                    for &fp in s.fans.positions(i) {
                        r.expand_to(fp);
                    }
                    s.rects.push(r);
                }
                s.rects.push(self.fanout_rect(fallback));
                manhattan_median_with(&s.rects, fallback, &mut s.xs, &mut s.ys)
            }
        };

        // 2. Add the wire of the nets the match creates (Section 3.4).
        // Each fanin net is shared by its sinks: the true fanouts plus
        // the candidate gate. Under the half-perimeter model the fanin
        // rectangle is the bounding box `half_perimeter` would build
        // from the net's pins, expanded in the same order.
        for (i, &p) in s.in_pos.iter().enumerate() {
            let f = s.fans.positions(i);
            let len = if lay.wire_model == WireModel::HalfPerimeterSteiner {
                fanin_rect(p, f, pos).half_perimeter() * chung_hwang_factor(f.len() + 2)
            } else {
                s.pts.clear();
                s.pts.push(p);
                s.pts.extend_from_slice(f);
                s.pts.push(pos);
                net_length_with(lay.wire_model, &s.pts, &mut s.tree)
            };
            w_cost += len / (f.len() + 1) as f64;
        }
        // Absorbing a multi-fanout node whose signal other consumers
        // still need forces that logic to be duplicated later (dove
        // reincarnation); the wire of the net the duplicate must
        // re-create is charged to this match. This is the
        // k-distribution-point economics of Figure 1.1(a): killing a
        // distribution point is only free when nobody else taps it.
        for &c in &m.covered[1..] {
            s.pts.clear();
            s.pts.push(place[c.index()]);
            s.pts.extend(table.fanouts(c).map(|f| f.pos));
            if s.pts.len() > 1 {
                w_cost += net_length_with(lay.wire_model, &s.pts, &mut s.tree);
            }
        }
        let area_key = a_cost + lay.wire_weight * w_cost;

        // 3. Delay evaluation (Section 4.4): the fanin loads are the pin
        // caps of the true fanouts and the candidate plus the wiring
        // cap of the fanin rectangle; the output load is estimated from
        // the base-function fanouts (paper §4.3, step 3).
        let (key, tiebreak) = match self.options.mode {
            MapMode::Area => (area_key, 0.0),
            MapMode::Delay => {
                let tech = e.lib.technology();
                let fans = &s.fans;
                let in_pos = &s.in_pos;
                let fanin_load = |pi: usize| {
                    let rect = fanin_rect(in_pos[pi], fans.positions(pi), pos);
                    fans.caps(pi).iter().sum::<f64>()
                        + gate.pins()[pi].capacitance
                        + tech.wire_cap(rect.width(), rect.height())
                };
                let fo_rect = self.fanout_rect(pos);
                let cl = self.unmapped_fanouts as f64 * tech.pin_cap
                    + tech.wire_cap(fo_rect.width(), fo_rect.height());
                (self.arrival(m, fanin_load, cl, &mut s.blocks).worst(), area_key)
            }
        };
        Priced { key, tiebreak, a_cost, w_cost, pos }
    }

    /// The best match at `v` and its solution. After the first match,
    /// a match whose [`Site::key_bound`] cannot improve on the best so
    /// far is skipped unpriced; every skipped match would have lost, so
    /// the choice is the one pricing every match makes.
    fn solve(
        &self,
        scope: &Scope,
        table: &mut FanoutTable,
        s: &mut Scratch,
    ) -> Result<(usize, Solution), MapError> {
        table.build(self.e, self.v, self.place, self.output_pads);
        let mut best: Option<(f64, f64, usize, Solution)> = None;
        for (mi, m) in self.e.idx.at(self.v).iter().enumerate() {
            if !self.e.match_allowed(scope, &m) {
                continue;
            }
            let inherited = self.inherited(&m);
            if let Some(&(bk, _bt, _, _)) = best.as_ref() {
                let bound = self.key_bound(&m, inherited, &mut s.blocks);
                if cannot_improve(self.options.mode, bound, bk) {
                    #[cfg(test)]
                    tests::check_pruned(&self.price(&m, inherited, table, s), bound, (bk, _bt));
                    continue;
                }
            }
            let p = self.price(&m, inherited, table, s);
            if improves(p.key, p.tiebreak, best.as_ref().map(|b| (b.0, b.1))) {
                let blocks = s.blocks.clone();
                let sol = Solution {
                    a_cost: p.a_cost,
                    w_cost: p.w_cost,
                    blocks,
                    gate: Some(m.gate),
                    map_pos: p.pos,
                };
                best = Some((p.key, p.tiebreak, mi, sol));
            }
        }
        let (_, _, mi, sol) = best.ok_or(MapError::NoMatch { node: self.v.index() })?;
        Ok((mi, sol))
    }
}

/// The placement-guided covering DP (Sections 3 and 4), shared by every
/// placed mapper: [`LilyMapper`] drives it over the structural match
/// index, [`crate::CutMapper`] over NPN-matched cuts. The engine's
/// match index is the only thing that differs — position updates, wire
/// pricing and delay re-evaluation are cost-model code and apply to any
/// `Match`, tree-shaped or not.
pub(crate) fn run_placed_dp(
    mut e: Engine<'_>,
    options: &MapOptions,
    place: &[Point],
    output_pads: &[Point],
) -> Result<MapResult, MapError> {
    // Cones in the exit-line order of Section 3.5 when enabled.
    let scopes = e.scopes(options.partition, options.layout.cone_ordering);
    let n = e.g.node_count();
    let mut sol: Vec<Solution> = vec![Solution::default(); n];
    let mut table = FanoutTable::new(n);
    let mut scratch = Scratch::default();

    for scope in &scopes {
        for &v in scope.members() {
            if !e.visit(v) || e.reuse(v) {
                continue;
            }
            let site = Site::new(&e, &sol, place, output_pads, options, v);
            let (mi, s) = site.solve(scope, &mut table, &mut scratch)?;
            e.record_solve(v, mi, !s.same_bits(&sol[v.index()]));
            sol[v.index()] = s;
        }
        // Step 5 of §4.4 / commit: realize the chosen cover at the
        // stored mapPositions.
        let sol_pos = |v: SubjectNodeId| -> (f64, f64) { sol[v.index()].map_pos.into() };
        e.commit(scope.root(), &mut |v| sol_pos(v));
    }
    Ok(e.finish())
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::rects::true_fanouts;
    use lily_cells::mapped::equiv_mapped_subject;
    use lily_netlist::decompose::{decompose, DecomposeOrder};
    use lily_netlist::{Network, NodeFunc};
    use std::cell::Cell;

    thread_local! {
        /// Matches whose filtered true-fanout lists were checked against
        /// the oracle on this thread.
        static ORACLE_CHECKS: Cell<usize> = const { Cell::new(0) };
        /// Matches the key bound skipped on this thread, each priced in
        /// full by [`check_pruned`].
        static PRUNED: Cell<usize> = const { Cell::new(0) };
    }

    /// The oracle of the key bound: a match the DP skipped unpriced,
    /// priced in full, has a key no lower than its bound and would not
    /// have replaced the best match `(key, tiebreak)` of its node.
    pub(super) fn check_pruned(full: &Priced, bound: f64, best: (f64, f64)) {
        let above = bound.partial_cmp(&full.key) == Some(std::cmp::Ordering::Greater);
        assert!(!above, "bound {bound} above the key of {full:?}");
        assert!(
            !improves(full.key, full.tiebreak, Some(best)),
            "a skipped match would have won: {full:?} against {best:?}"
        );
        PRUNED.with(|n| n.set(n.get() + 1));
    }

    /// The oracle of the per-solve [`FanoutTable`]: for every input and
    /// absorbed node of `m`, the filtered list equals
    /// [`true_fanouts`]`(e, u, &m.covered, ..)` bit for bit and in order.
    pub(super) fn check_against_oracle(
        e: &Engine,
        m: &crate::matching::Match<'_>,
        table: &FanoutTable,
        fans: &FanLists,
        place: &[Point],
        output_pads: &[Point],
    ) {
        let bits = |pos: &mut dyn Iterator<Item = (Point, f64)>| -> Vec<[u64; 3]> {
            pos.map(|(p, c)| [p.x.to_bits(), p.y.to_bits(), c.to_bits()]).collect()
        };
        let oracle = |u: SubjectNodeId| {
            let want = true_fanouts(e, u, m.covered, place, output_pads);
            bits(&mut want.positions.into_iter().zip(want.caps))
        };
        for (i, &u) in m.inputs.iter().enumerate() {
            let got =
                bits(&mut fans.positions(i).iter().copied().zip(fans.caps(i).iter().copied()));
            assert_eq!(got, oracle(u), "input {u} of the match at {}", m.root());
        }
        for &c in &m.covered[1..] {
            let got = bits(&mut table.fanouts(c).map(|f| (f.pos, f.cap)));
            assert_eq!(got, oracle(c), "absorbed {c} of the match at {}", m.root());
        }
        ORACLE_CHECKS.with(|n| n.set(n.get() + 1));
    }

    /// random-dag 400, C432 and an output driver that also feeds two
    /// gates (its lists mix a committed consumer, an unmapped fanout and
    /// a pad), each with a scattered placement.
    fn oracle_inputs() -> Vec<(String, SubjectGraph, Vec<Point>, Vec<Point>)> {
        use lily_workloads::{circuits, scale_circuit, ScaleFamily};
        let mut tapped = Network::new("tapped");
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| tapped.add_input(n));
        let g1 = tapped.add_node("g1", NodeFunc::Nand, vec![a, b]).unwrap();
        let g2 = tapped.add_node("g2", NodeFunc::Nand, vec![g1, c]).unwrap();
        let g3 = tapped.add_node("g3", NodeFunc::Nand, vec![g1, d]).unwrap();
        for (name, node) in [("y0", g1), ("y1", g2), ("y2", g3)] {
            tapped.add_output(name, node);
        }
        let nets =
            [scale_circuit(ScaleFamily::RandomDag, 400, 1), circuits::circuit("C432"), tapped];
        nets.into_iter()
            .map(|net| {
                let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
                let place: Vec<Point> = (0..g.node_count())
                    .map(|i| {
                        Point::new(((i * 37) % 23) as f64 * 50.0, ((i * 11) % 19) as f64 * 50.0)
                    })
                    .collect();
                let pads: Vec<Point> =
                    (0..g.outputs().len()).map(|i| Point::new(1200.0, i as f64 * 30.0)).collect();
                (net.name().to_string(), g, place, pads)
            })
            .collect()
    }

    #[test]
    fn fanout_table_matches_the_true_fanouts_oracle() {
        let lib = Library::big();
        for (name, g, place, pads) in oracle_inputs() {
            let before = ORACLE_CHECKS.with(Cell::get);
            let r = LilyMapper::new(&lib).map(&g, &place, &pads).unwrap();
            let checked = ORACLE_CHECKS.with(Cell::get) - before;
            let solves = r.stats.dp_solves;
            assert!(solves > 0 && checked >= solves, "{name}: {checked} matches checked");
        }
    }

    #[test]
    fn the_key_bound_prunes_in_both_modes_and_never_a_winner() {
        // Every skipped match is priced in full by `check_pruned`, which
        // asserts it would have lost; the bound must also fire. The
        // three-gate `tapped` has too few rival matches to prune in area
        // mode, so the count is per mode over all inputs.
        let lib = Library::big();
        let inputs = oracle_inputs();
        for mode in [MapMode::Area, MapMode::Delay] {
            let before = PRUNED.with(Cell::get);
            for (_, g, place, pads) in &inputs {
                LilyMapper::new(&lib).mode(mode).map(g, place, pads).unwrap();
            }
            let pruned = PRUNED.with(Cell::get) - before;
            assert!(pruned > 0, "{mode:?}: no match pruned");
        }
    }

    #[test]
    fn negative_or_non_finite_wire_weight_is_rejected() {
        let lib = Library::big();
        let (g, place, pads) = setup(&sample_network());
        for w in [-0.5, f64::NAN, f64::INFINITY] {
            let layout = LayoutOptions { wire_weight: w, ..LayoutOptions::default() };
            let err = LilyMapper::new(&lib).layout(layout).map(&g, &place, &pads).unwrap_err();
            assert!(
                matches!(&err, MapError::DegenerateInput { stage: "map", message }
                    if message.contains("wire_weight")),
                "{w}: {err}"
            );
            let err = crate::CutMapper::new(&lib).layout(layout).map(&g, &place, &pads);
            assert!(matches!(err, Err(MapError::DegenerateInput { .. })), "cut mapper, {w}");
        }
    }

    /// Build a network, decompose, and fabricate a plausible placement
    /// (grid by node index) for testing.
    fn setup(net: &Network) -> (SubjectGraph, Vec<Point>, Vec<Point>) {
        let g = decompose(net, DecomposeOrder::Balanced).unwrap();
        let place: Vec<Point> = (0..g.node_count())
            .map(|i| Point::new((i % 8) as f64 * 50.0, (i / 8) as f64 * 50.0))
            .collect();
        let pads: Vec<Point> =
            (0..g.outputs().len()).map(|i| Point::new(500.0, i as f64 * 60.0)).collect();
        (g, place, pads)
    }

    fn sample_network() -> Network {
        let mut net = Network::new("s");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let g1 = net.add_node("g1", NodeFunc::And, vec![a, b]).unwrap();
        let g2 = net.add_node("g2", NodeFunc::Or, vec![g1, c]).unwrap();
        let g3 = net.add_node("g3", NodeFunc::Xor, vec![g2, d]).unwrap();
        let g4 = net.add_node("g4", NodeFunc::Nand, vec![g1, g3]).unwrap();
        net.add_output("y1", g3);
        net.add_output("y2", g4);
        net
    }

    #[test]
    fn lily_preserves_function_all_configs() {
        let lib = Library::big();
        let net = sample_network();
        let (g, place, pads) = setup(&net);
        for mode in [MapMode::Area, MapMode::Delay] {
            for update in
                [PositionUpdate::CmMerged, PositionUpdate::CmFans, PositionUpdate::MedianFans]
            {
                for model in [WireModel::HalfPerimeterSteiner, WireModel::SpanningTree] {
                    let mapper = LilyMapper::new(&lib).mode(mode).layout(LayoutOptions {
                        position_update: update,
                        wire_model: model,
                        ..LayoutOptions::default()
                    });
                    let r = mapper.map(&g, &place, &pads).unwrap();
                    assert!(
                        equiv_mapped_subject(&g, &r.mapped, &lib, 256, 9),
                        "{mode:?} {update:?} {model:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lily_cells_have_positions() {
        let lib = Library::big();
        let net = sample_network();
        let (g, place, pads) = setup(&net);
        let r = LilyMapper::new(&lib).map(&g, &place, &pads).unwrap();
        // At least one cell away from the origin (positions flowed in).
        assert!(r.mapped.cells().iter().any(|c| c.position.0.abs() > 1.0));
    }

    #[test]
    fn missing_placement_is_rejected() {
        let lib = Library::big();
        let net = sample_network();
        let (g, place, pads) = setup(&net);
        let err = LilyMapper::new(&lib).map(&g, &place[..2], &pads).unwrap_err();
        assert!(matches!(err, MapError::MissingPlacement { .. }));
        let err2 = LilyMapper::new(&lib).map(&g, &place, &[]).unwrap_err();
        assert!(matches!(err2, MapError::MissingPlacement { .. }));
    }

    #[test]
    fn cone_ordering_statistic_is_recorded() {
        let lib = Library::big();
        let net = sample_network();
        let (g, place, pads) = setup(&net);
        let r = LilyMapper::new(&lib).map(&g, &place, &pads).unwrap();
        assert!(r.stats.ordering_cost.is_some());
        let off = LilyMapper::new(&lib)
            .layout(LayoutOptions { cone_ordering: false, ..LayoutOptions::default() })
            .map(&g, &place, &pads)
            .unwrap();
        assert!(off.stats.ordering_cost.is_none());
        assert!(equiv_mapped_subject(&g, &off.mapped, &lib, 128, 3));
    }

    #[test]
    fn wire_weight_zero_reduces_to_area_choice() {
        // With wire weight 0, Lily's area mode should pick the same total
        // gate area as the MIS baseline (same DP, same costs).
        use crate::baseline::MisMapper;
        let lib = Library::big();
        let net = sample_network();
        let (g, place, pads) = setup(&net);
        let lily = LilyMapper::new(&lib)
            .layout(LayoutOptions {
                wire_weight: 0.0,
                cone_ordering: false,
                ..LayoutOptions::default()
            })
            .map(&g, &place, &pads)
            .unwrap();
        let mis = MisMapper::new(&lib).map(&g).unwrap();
        let la = lily.mapped.instance_area(&lib);
        let ma = mis.mapped.instance_area(&lib);
        assert!((la - ma).abs() < 1e-6, "lily {la} vs mis {ma}");
    }

    #[test]
    fn spread_sources_prefer_splitting() {
        // Figure 1.1(a): one 6-input AND whose sources are placed at
        // opposite ends. With a strong wire weight, Lily should spend
        // more gates (smaller fanin each) than the wire-blind mapper.
        use crate::baseline::MisMapper;
        let lib = Library::big();
        let mut net = Network::new("spread");
        let ins: Vec<_> = (0..6).map(|i| net.add_input(format!("i{i}"))).collect();
        let o = net.add_node("o", NodeFunc::Nand, ins).unwrap();
        net.add_output("y", o);
        let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
        // Sources in two far clusters; internal nodes near their cluster.
        let mut place = vec![Point::default(); g.node_count()];
        for (i, &pi) in g.inputs().iter().enumerate() {
            place[pi.index()] = if i % 2 == 0 {
                Point::new(0.0, i as f64 * 10.0)
            } else {
                Point::new(4000.0, i as f64 * 10.0)
            };
        }
        for v in g.node_ids() {
            if !matches!(g.kind(v), lily_netlist::SubjectKind::Input(_)) {
                place[v.index()] = Point::new(2000.0, 30.0);
            }
        }
        let pads = vec![Point::new(2000.0, 4000.0)];
        let mis = MisMapper::new(&lib).map(&g).unwrap();
        let lily = LilyMapper::new(&lib)
            .layout(LayoutOptions { wire_weight: 100.0, ..LayoutOptions::default() })
            .map(&g, &place, &pads)
            .unwrap();
        assert!(equiv_mapped_subject(&g, &lily.mapped, &lib, 64, 2));
        assert!(
            lily.mapped.cell_count() >= mis.mapped.cell_count(),
            "lily {} cells vs mis {}",
            lily.mapped.cell_count(),
            mis.mapped.cell_count()
        );
    }
}
