//! The event-driven contact core.
//!
//! The time-stepped kernel pays a full world sweep every step: rebuild the
//! spatial grid from scratch, enumerate every 3×3 cell neighbourhood, and
//! distance-check every candidate pair — O(nodes + near pairs) work even
//! when nobody is near anybody. This module replaces that sweep with a
//! *predicted-crossing* scheduler that produces the exact same in-range
//! pair list every step (byte-identical traces and summaries) while doing
//! work only where geometry says something can change:
//!
//! * **Cell-crossing events.** Each node belongs to one coarse grid cell
//!   (cell width = radio range, the same geometry as the sweep grid). The
//!   earliest step at which a node can leave its cell is bounded by its
//!   distance to the cell boundary over its speed cap, so the per-node
//!   "did I cross?" test is skipped entirely until that predicted step.
//!   A model that cannot bound its speed predicts "next step", which
//!   degrades to the exact per-step check, never to a wrong answer.
//! * **Pair-recheck events.** When two nodes share adjacent cells, the
//!   pair enters a watch set and is distance-checked at a conservatively
//!   predicted step: a pair at distance `d` closing at a combined speed
//!   cap `v` cannot come within range `r` for at least `(d − r) / v`
//!   seconds. Pairs near the range boundary graduate into a *hot* set
//!   that is checked every step, so in-range detection is exact.
//! * **Deterministic queue.** Predictions live in a binary heap keyed
//!   `(due step, pair id)`; stale entries (a pair re-predicted before its
//!   old event fired) are skipped by a generation check against the watch
//!   set. Every data structure is updated in deterministic order, so the
//!   engine's state — and therefore its cost — is a pure function of the
//!   scenario and seed.
//!
//! Invalidation rule: predictions are *never* trusted across a waypoint
//! change, because they never look at headings at all — only at the speed
//! cap, which no leg change can exceed. A teleporting or scripted node is
//! caught by the cell-crossing test the same step it moves, which resets
//! every affected pair prediction (see [`ContactEngine::collect`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::contact::ContactKey;
use crate::energy::EnergyMeter;
use crate::geometry::{Area, Point};
use crate::world::NodeId;

/// Which contact-detection core a simulation runs on.
///
/// Both modes produce byte-identical traces and summaries on every
/// scenario (the conformance suite asserts this); they differ only in
/// wall-clock cost. The time-stepped sweep remains available for one
/// release as the equivalence oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KernelMode {
    /// The original per-step world sweep (grid rebuild + full pair scan).
    TimeStepped,
    /// The predicted-crossing event core (this module). The default.
    #[default]
    EventDriven,
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelMode::TimeStepped => "time-stepped",
            KernelMode::EventDriven => "event-driven",
        })
    }
}

impl std::str::FromStr for KernelMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "time-stepped" => Ok(KernelMode::TimeStepped),
            "event-driven" => Ok(KernelMode::EventDriven),
            other => Err(format!(
                "unknown kernel mode {other:?} (expected time-stepped or event-driven)"
            )),
        }
    }
}

/// A deterministic event queue: a binary heap keyed `(due step, id)`.
///
/// Pop order is a pure function of the pushed contents — ties on the due
/// step break on the id — so any schedule built through deterministic
/// pushes replays identically.
#[derive(Debug)]
pub struct EventQueue<T: Ord> {
    heap: BinaryHeap<Reverse<(u64, T)>>,
}

impl<T: Ord> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T: Ord> EventQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Schedules `id` to fire at `due`.
    pub fn push(&mut self, due: u64, id: T) {
        self.heap.push(Reverse((due, id)));
    }

    /// Pops the earliest event if it is due at or before `step`.
    pub fn pop_due(&mut self, step: u64) -> Option<(u64, T)> {
        match self.heap.peek() {
            Some(Reverse((due, _))) if *due <= step => {
                let Reverse(entry) = self.heap.pop().expect("peeked entry");
                Some(entry)
            }
            _ => None,
        }
    }

    /// Number of scheduled (possibly stale) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn clear(&mut self) {
        self.heap.clear();
    }
}

/// A watched pair's scheduling state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PairState {
    /// Within the hot band around the radio range: checked every step.
    Hot,
    /// Far enough out that the next check is predicted for this step.
    /// A popped event whose due step disagrees with this value is stale
    /// (the pair was re-predicted since) and is skipped.
    Due(u64),
}

/// Pair-state map on the fast id hasher: only `get`/`insert`/`remove`
/// ever touch it (iteration order is never observed), so the hasher
/// choice cannot affect simulation output.
type PairMap = crate::fxhash::FxHashMap<ContactKey, PairState>;

/// How many steps of combined-speed travel the hot band extends past the
/// radio range on entry. Pairs closer than this are checked every step.
const HOT_ENTER_STEPS: f64 = 2.0;
/// Hot-band exit threshold, in combined-speed steps past the range. Wider
/// than the entry threshold so boundary pairs do not flap between the hot
/// list and the queue.
const HOT_EXIT_STEPS: f64 = 6.0;
/// Cap on how far ahead a recheck may be predicted, in steps.
const MAX_PREDICT_STEPS: f64 = 1_000_000.0;

/// The predicted-crossing contact engine (see the module docs).
///
/// [`ContactEngine::collect`] produces, for any step, the exact sorted
/// list of in-range non-depleted pairs that the time-stepped sweep would
/// produce — the superset property of the watch set guarantees no pair is
/// missed, and the shared distance predicate guarantees no extras.
#[derive(Debug)]
pub struct ContactEngine {
    range: f64,
    range_sq: f64,
    dt_secs: f64,
    cell: f64,
    cols: usize,
    rows: usize,
    /// Coarse-cell occupancy, maintained incrementally on crossings.
    cells: Vec<Vec<NodeId>>,
    /// Each node's current flat cell index.
    node_cell: Vec<u32>,
    /// Each node's slot inside its cell's occupancy vector (O(1) removal).
    cell_slot: Vec<u32>,
    /// Earliest step at which each node could leave its cell.
    cross_check_at: Vec<u64>,
    /// Per-node speed cap, m/s (`f64::INFINITY` when the model has none).
    vmax: Vec<f64>,
    /// Scheduling state of every watched pair.
    state: PairMap,
    /// Predicted rechecks of the `Due` pairs.
    queue: EventQueue<ContactKey>,
    /// Pairs in the hot band, checked every step.
    hot: Vec<ContactKey>,
    /// Nodes that changed cell this step (scratch).
    crossed: Vec<NodeId>,
}

impl ContactEngine {
    /// Builds an engine over `area` with the given radio `range` and step
    /// length, watching the pairs implied by the initial `positions`.
    /// `vmax` carries each node's speed cap.
    ///
    /// # Panics
    ///
    /// Panics if `positions` and `vmax` disagree in length, or the range
    /// or step is non-positive.
    #[must_use]
    pub fn new(area: Area, range: f64, dt_secs: f64, positions: &[Point], vmax: Vec<f64>) -> Self {
        assert_eq!(positions.len(), vmax.len(), "one speed cap per node");
        assert!(range > 0.0, "radio range must be positive");
        assert!(dt_secs > 0.0, "step must be positive");
        // Same cell geometry as the sweep grid: cell width = radio range,
        // so two nodes in non-adjacent cells are strictly farther apart
        // than the range — the adjacency invariant the watch set rests on.
        let cell = range.max(1.0);
        let cols = ((area.width / cell).ceil() as usize).max(1);
        let rows = ((area.height / cell).ceil() as usize).max(1);
        let n = positions.len();
        let mut engine = ContactEngine {
            range,
            range_sq: range * range,
            dt_secs,
            cell,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            node_cell: vec![0; n],
            cell_slot: vec![0; n],
            cross_check_at: vec![0; n],
            vmax,
            state: PairMap::default(),
            queue: EventQueue::new(),
            hot: Vec::new(),
            crossed: Vec::new(),
        };
        engine.rebuild(positions, 0);
        engine
    }

    /// Discards all predictions and watch state and rebuilds them from
    /// `positions` as of `step`. Used after a snapshot restore: the watch
    /// set is derived state, and a rebuilt superset yields the same exact
    /// in-range list as the uninterrupted engine would.
    ///
    /// `positions` are the positions *before* the mobility phase of
    /// `step`: by the time `collect(step)` runs, every node has moved one
    /// further `dt`. Seeding therefore schedules every prediction one
    /// step early (`lag = 1`) so the extra movement cannot outrun a
    /// prediction made from the older geometry.
    pub fn rebuild(&mut self, positions: &[Point], step: u64) {
        for cell in &mut self.cells {
            cell.clear();
        }
        self.state.clear();
        self.queue.clear();
        self.hot.clear();
        for (i, &p) in positions.iter().enumerate() {
            let c = self.cell_index(p);
            self.node_cell[i] = c as u32;
            self.cell_slot[i] = self.cells[c].len() as u32;
            self.cells[c].push(NodeId(i as u32));
            self.cross_check_at[i] = step
                .saturating_add(self.cross_steps(p, c, self.vmax[i]))
                .saturating_sub(1);
        }
        // Seed the watch set: every node "crossed into" its cell at once.
        for i in 0..positions.len() {
            self.watch_neighbourhood(NodeId(i as u32), step, positions, 1);
        }
    }

    /// Collects the exact sorted in-range pair list for `step` into
    /// `out`, applying the same depleted-radio filter as the sweep. Pairs
    /// are appended unsorted; the caller sorts.
    pub fn collect(
        &mut self,
        step: u64,
        positions: &[Point],
        energy: &EnergyMeter,
        out: &mut Vec<ContactKey>,
    ) {
        // Phase 1 (serial): fire due cell-crossing checks. Moving a node
        // between cells is deterministic bookkeeping; collecting all moves
        // before generating candidates keeps adjacency consistent when
        // both endpoints of a pair cross in the same step.
        self.crossed.clear();
        for (i, &p) in positions.iter().enumerate() {
            if self.cross_check_at[i] > step {
                continue;
            }
            let c = self.cell_index(p);
            let old = self.node_cell[i] as usize;
            if c != old {
                let node = NodeId(i as u32);
                let slot = self.cell_slot[i] as usize;
                self.cells[old].swap_remove(slot);
                if let Some(&moved) = self.cells[old].get(slot) {
                    self.cell_slot[moved.index()] = slot as u32;
                }
                self.node_cell[i] = c as u32;
                self.cell_slot[i] = self.cells[c].len() as u32;
                self.cells[c].push(node);
                self.crossed.push(node);
            }
            self.cross_check_at[i] = step.saturating_add(self.cross_steps(p, c, self.vmax[i]));
        }
        // Phase 2 (serial): every crossed node re-pairs against its new
        // 3×3 neighbourhood. Already-hot pairs are left alone; scheduled
        // or unwatched pairs are re-predicted from scratch — this is the
        // invalidation rule that makes teleports and leg changes safe.
        for idx in 0..self.crossed.len() {
            let node = self.crossed[idx];
            self.watch_neighbourhood(node, step, positions, 0);
        }
        // Phase 3: fire due pair rechecks first — a pair predicted for
        // this very step may be in range right now, and classification
        // routes it into the hot list scanned below.
        while let Some((due, pair)) = self.queue.pop_due(step) {
            if self.state.get(&pair) != Some(&PairState::Due(due)) {
                continue; // stale: the pair was re-predicted or went hot
            }
            if !self.cells_adjacent(pair) {
                self.state.remove(&pair);
                continue;
            }
            self.classify(pair, step, 0, positions);
        }
        // Phase 4: exact distance check of every pair near the range
        // boundary. Index loop because demotions swap-remove.
        let mut i = 0;
        while i < self.hot.len() {
            let pair = self.hot[i];
            if !self.cells_adjacent(pair) {
                self.state.remove(&pair);
                self.hot.swap_remove(i);
                continue;
            }
            let d_sq = positions[pair.0.index()].distance_sq_to(positions[pair.1.index()]);
            if d_sq <= self.range_sq && !energy.is_depleted(pair.0) && !energy.is_depleted(pair.1) {
                out.push(pair);
            }
            let vp = self.vmax[pair.0.index()] + self.vmax[pair.1.index()];
            let exit = self.range + HOT_EXIT_STEPS * vp * self.dt_secs;
            if d_sq > exit * exit {
                // Far enough to predict ahead again (vp > 0, else the
                // exit band collapses to the range and d ≤ range keeps
                // the pair hot; an immobile out-of-range pair was never
                // classified hot to begin with).
                let due = step + predict_steps(d_sq.sqrt() - self.range, vp, self.dt_secs);
                self.state.insert(pair, PairState::Due(due));
                self.queue.push(due, pair);
                self.hot.swap_remove(i);
                continue;
            }
            i += 1;
        }
    }

    /// Total watched pairs (diagnostics).
    #[must_use]
    pub fn watched_pairs(&self) -> usize {
        self.state.len()
    }

    fn cell_index(&self, p: Point) -> usize {
        let cx = ((p.x / self.cell) as usize).min(self.cols - 1);
        let cy = ((p.y / self.cell) as usize).min(self.rows - 1);
        cy * self.cols + cx
    }

    /// Steps until `p` could first leave cell `c`: boundary distance over
    /// the speed cap. An unbounded model checks again next step; a pinned
    /// node never does.
    fn cross_steps(&self, p: Point, c: usize, vmax: f64) -> u64 {
        if vmax <= 0.0 {
            return u64::MAX;
        }
        if !vmax.is_finite() {
            return 1;
        }
        let cx = (c % self.cols) as f64;
        let cy = (c / self.cols) as f64;
        let margin = (p.x - cx * self.cell)
            .min((cx + 1.0) * self.cell - p.x)
            .min(p.y - cy * self.cell)
            .min((cy + 1.0) * self.cell - p.y);
        let steps = (margin / (vmax * self.dt_secs)).floor();
        if steps <= 1.0 {
            1
        } else {
            steps.min(MAX_PREDICT_STEPS) as u64
        }
    }

    /// (Re-)watches every pair between `node` and the occupants of its
    /// 3×3 cell neighbourhood. Hot pairs are already exact; anything else
    /// gets a fresh prediction from current positions. `lag` is the
    /// number of mobility steps the supplied positions trail the next
    /// `collect` call by (1 when seeding from a rebuild, 0 in-step).
    fn watch_neighbourhood(&mut self, node: NodeId, step: u64, positions: &[Point], lag: u64) {
        let c = self.node_cell[node.index()] as usize;
        let cx = c % self.cols;
        let cy = c / self.cols;
        for ny in cy.saturating_sub(1)..=(cy + 1).min(self.rows - 1) {
            for nx in cx.saturating_sub(1)..=(cx + 1).min(self.cols - 1) {
                let cell = ny * self.cols + nx;
                // Index loop: classification never touches cell occupancy.
                for k in 0..self.cells[cell].len() {
                    let other = self.cells[cell][k];
                    if other == node {
                        continue;
                    }
                    let pair = ContactKey::new(node, other);
                    if self.state.get(&pair) == Some(&PairState::Hot) {
                        continue;
                    }
                    self.classify(pair, step, lag, positions);
                }
            }
        }
    }

    /// Chebyshev cell distance ≤ 1 — the watchability criterion. Two
    /// nodes in non-adjacent cells are strictly farther apart than the
    /// range, and re-entering adjacency necessarily crosses a cell
    /// boundary, which re-watches the pair.
    fn cells_adjacent(&self, pair: ContactKey) -> bool {
        let a = self.node_cell[pair.0.index()] as usize;
        let b = self.node_cell[pair.1.index()] as usize;
        let (ax, ay) = (a % self.cols, a / self.cols);
        let (bx, by) = (b % self.cols, b / self.cols);
        ax.abs_diff(bx) <= 1 && ay.abs_diff(by) <= 1
    }

    /// Places `pair` in the watch set from its current geometry: inside
    /// the hot band → hot (checked every step); approachable → predicted
    /// recheck; immobile and out of range → unwatched (it can never
    /// close, and any future motion re-watches it via a cell crossing).
    /// `lag` shifts the prediction earlier when the supplied positions
    /// trail the next `collect` by that many mobility steps.
    fn classify(&mut self, pair: ContactKey, step: u64, lag: u64, positions: &[Point]) {
        let d_sq = positions[pair.0.index()].distance_sq_to(positions[pair.1.index()]);
        let vp = self.vmax[pair.0.index()] + self.vmax[pair.1.index()];
        let enter = self.range + HOT_ENTER_STEPS * vp * self.dt_secs;
        if d_sq <= enter * enter {
            if self.state.insert(pair, PairState::Hot) != Some(PairState::Hot) {
                self.hot.push(pair);
            }
            return;
        }
        if vp <= 0.0 {
            // Neither endpoint can move: the gap is permanent.
            self.state.remove(&pair);
            return;
        }
        let due = step
            .saturating_add(predict_steps(d_sq.sqrt() - self.range, vp, self.dt_secs))
            .saturating_sub(lag);
        self.state.insert(pair, PairState::Due(due));
        self.queue.push(due, pair);
    }
}

/// Conservative steps until a pair `slack` metres outside the range could
/// close it at combined speed cap `vp`: each step shrinks the gap by at
/// most `vp·dt`, so checking after `floor(slack / (vp·dt))` steps can
/// never miss the crossing.
fn predict_steps(slack: f64, vp: f64, dt_secs: f64) -> u64 {
    let steps = (slack / (vp * dt_secs)).floor();
    if steps <= 1.0 {
        1
    } else {
        steps.min(MAX_PREDICT_STEPS) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::RadioConfig;

    #[test]
    fn queue_pops_in_step_then_id_order() {
        let mut q = EventQueue::new();
        q.push(5, 2u32);
        q.push(3, 9);
        q.push(5, 1);
        q.push(8, 0);
        assert_eq!(q.pop_due(10), Some((3, 9)));
        assert_eq!(q.pop_due(10), Some((5, 1)));
        assert_eq!(q.pop_due(10), Some((5, 2)));
        assert_eq!(q.pop_due(7), None, "not due yet");
        assert_eq!(q.pop_due(8), Some((8, 0)));
        assert!(q.is_empty());
    }

    #[test]
    fn kernel_mode_parses_and_round_trips() {
        assert_eq!(
            "time-stepped".parse::<KernelMode>().unwrap(),
            KernelMode::TimeStepped
        );
        assert_eq!(
            "event-driven".parse::<KernelMode>().unwrap(),
            KernelMode::EventDriven
        );
        assert!("both".parse::<KernelMode>().is_err());
        assert_eq!(KernelMode::default(), KernelMode::EventDriven);
        let doc = KernelMode::TimeStepped.to_value();
        assert_eq!(
            KernelMode::from_value(&doc).unwrap(),
            KernelMode::TimeStepped
        );
    }

    /// The engine must reproduce the sweep's in-range list exactly on a
    /// randomized world of movers with assorted speed caps.
    #[test]
    fn engine_matches_brute_force_over_random_walks() {
        use crate::rng::SimRng;

        let area = Area::new(900.0, 700.0);
        let range = RadioConfig::paper_default().range_m;
        let n = 60;
        let mut rng = SimRng::new(7);
        let mut positions: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.uniform(0.0, area.width), rng.uniform(0.0, area.height)))
            .collect();
        // Mixed caps: pinned nodes, slow walkers, one fast hopper, and one
        // node with no declared cap at all.
        let vmax: Vec<f64> = (0..n)
            .map(|i| match i % 5 {
                0 => 0.0,
                1 => 1.5,
                2 => 6.0,
                3 => 40.0,
                _ => f64::INFINITY,
            })
            .collect();
        let energy = EnergyMeter::new(n, RadioConfig::paper_default());
        let mut engine = ContactEngine::new(area, range, 1.0, &positions, vmax.clone());
        let mut got = Vec::new();
        for step in 0..400u64 {
            // Move every node within its cap (pinned nodes stay put; the
            // "unbounded" node teleports anywhere).
            for i in 0..n {
                let cap = if vmax[i].is_finite() { vmax[i] } else { 250.0 };
                if cap == 0.0 {
                    continue;
                }
                let p = positions[i];
                let q = Point::new(
                    (p.x + rng.uniform(-cap, cap)).clamp(0.0, area.width),
                    (p.y + rng.uniform(-cap, cap)).clamp(0.0, area.height),
                );
                // A diagonal draw can exceed the cap by √2; shrink it.
                let d = p.distance_to(q);
                positions[i] = if d > cap { p.step_toward(q, cap) } else { q };
            }
            got.clear();
            engine.collect(step, &positions, &energy, &mut got);
            got.sort_unstable();
            let mut want = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    if positions[a].distance_sq_to(positions[b]) <= range * range {
                        want.push(ContactKey(NodeId(a as u32), NodeId(b as u32)));
                    }
                }
            }
            assert_eq!(got, want, "step {step} diverged from brute force");
        }
    }

    /// Rebuilding from positions mid-run must not change the output —
    /// the watch set is derived state.
    #[test]
    fn rebuild_is_output_invariant() {
        let area = Area::new(400.0, 400.0);
        let range = 50.0;
        let n = 20;
        let positions: Vec<Point> = (0..n)
            .map(|i| Point::new(20.0 * i as f64, 11.0 * i as f64 % 400.0))
            .collect();
        let vmax = vec![2.0; n];
        let energy = EnergyMeter::new(n, RadioConfig::paper_default());
        let mut a = ContactEngine::new(area, range, 1.0, &positions, vmax.clone());
        let mut b = ContactEngine::new(area, range, 1.0, &positions, vmax);
        b.rebuild(&positions, 57);
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        a.collect(57, &positions, &energy, &mut out_a);
        b.collect(57, &positions, &energy, &mut out_b);
        out_a.sort_unstable();
        out_b.sort_unstable();
        assert_eq!(out_a, out_b);
        assert!(!out_a.is_empty(), "fixture should have contacts");
    }
}
