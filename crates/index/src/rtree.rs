//! A static, bulk-loaded R-tree over interval endpoints.
//!
//! Intervals are points `(start, end)` in the endpoint plane. TKIJ's local
//! join (paper §4, "Distributed join processing") keeps each bucket's
//! intervals "in memory \[in\] R-Trees" and retrieves, for an anchor
//! interval and a score threshold `v`, only the intervals that can score
//! at least `v` — which the predicate layer translates into an
//! axis-aligned window (see [`crate::threshold_candidates`]).
//!
//! The tree is packed with the Sort-Tile-Recursive (STR) algorithm: for a
//! static, known-in-advance point set this yields near-optimal leaves with
//! a trivial build. Fanout is fixed at [`FANOUT`].

use tkij_temporal::interval::Interval;

/// Maximum entries per node.
pub const FANOUT: usize = 16;

/// Inclusive rectangle in the (start, end) plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// Minimum (start, end).
    pub min: (i64, i64),
    /// Maximum (start, end).
    pub max: (i64, i64),
}

impl Rect {
    fn of_point(iv: &Interval) -> Rect {
        Rect { min: (iv.start, iv.end), max: (iv.start, iv.end) }
    }

    fn union(self, other: Rect) -> Rect {
        Rect {
            min: (self.min.0.min(other.min.0), self.min.1.min(other.min.1)),
            max: (self.max.0.max(other.max.0), self.max.1.max(other.max.1)),
        }
    }

    fn intersects_window(&self, w: &Window) -> bool {
        (self.min.0 as f64) <= w.start.1
            && (self.max.0 as f64) >= w.start.0
            && (self.min.1 as f64) <= w.end.1
            && (self.max.1 as f64) >= w.end.0
    }

    /// Whether a concrete point rect is fully inside the window.
    fn inside_window(&self, w: &Window) -> bool {
        (self.min.0 as f64) >= w.start.0
            && (self.max.0 as f64) <= w.start.1
            && (self.min.1 as f64) >= w.end.0
            && (self.max.1 as f64) <= w.end.1
    }
}

/// A query window: inclusive `[lo, hi]` ranges on start and end
/// coordinates (possibly infinite).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Range for the start coordinate.
    pub start: (f64, f64),
    /// Range for the end coordinate.
    pub end: (f64, f64),
}

impl Window {
    /// The window admitting every point.
    pub fn all() -> Self {
        Window {
            start: (f64::NEG_INFINITY, f64::INFINITY),
            end: (f64::NEG_INFINITY, f64::INFINITY),
        }
    }

    /// Whether an interval's endpoint point lies inside.
    #[inline]
    pub fn contains(&self, iv: &Interval) -> bool {
        let s = iv.start as f64;
        let e = iv.end as f64;
        s >= self.start.0 && s <= self.start.1 && e >= self.end.0 && e <= self.end.1
    }

    /// Whether the window is trivially empty.
    pub fn is_empty(&self) -> bool {
        self.start.0 > self.start.1 || self.end.0 > self.end.1
    }
}

impl From<tkij_temporal::predicate::ThresholdWindow> for Window {
    fn from(w: tkij_temporal::predicate::ThresholdWindow) -> Self {
        Window { start: w.start, end: w.end }
    }
}

#[derive(Debug, Clone)]
enum NodeKind {
    /// Range into the packed items array.
    Leaf { lo: u32, hi: u32 },
    /// Child node indexes.
    Internal { children: Vec<u32> },
}

#[derive(Debug, Clone)]
struct Node {
    rect: Rect,
    kind: NodeKind,
}

/// A static R-tree over a set of intervals.
#[derive(Debug, Clone)]
pub struct RTree {
    items: Vec<Interval>,
    nodes: Vec<Node>,
    root: Option<u32>,
}

impl RTree {
    /// Bulk-loads the tree with STR packing. The input order does not
    /// matter; queries visit items in packed (deterministic) order.
    pub fn bulk_load(mut items: Vec<Interval>) -> Self {
        if items.is_empty() {
            return RTree { items, nodes: Vec::new(), root: None };
        }
        // STR: sort by start, tile into √(n/FANOUT) vertical slices, sort
        // each slice by end, pack runs of FANOUT into leaves.
        items.sort_unstable_by_key(|iv| (iv.start, iv.end, iv.id));
        let n = items.len();
        let num_leaves = n.div_ceil(FANOUT);
        let slices = (num_leaves as f64).sqrt().ceil() as usize;
        let slice_size = n.div_ceil(slices.max(1));
        for chunk in items.chunks_mut(slice_size.max(1)) {
            chunk.sort_unstable_by_key(|iv| (iv.end, iv.start, iv.id));
        }

        let mut nodes: Vec<Node> = Vec::with_capacity(2 * num_leaves);
        let mut level: Vec<u32> = Vec::with_capacity(num_leaves);
        let mut idx = 0usize;
        while idx < n {
            let hi = (idx + FANOUT).min(n);
            let rect = items[idx..hi]
                .iter()
                .map(Rect::of_point)
                .reduce(Rect::union)
                .expect("non-empty leaf");
            nodes.push(Node { rect, kind: NodeKind::Leaf { lo: idx as u32, hi: hi as u32 } });
            level.push((nodes.len() - 1) as u32);
            idx = hi;
        }
        // Build internal levels bottom-up.
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(FANOUT));
            for group in level.chunks(FANOUT) {
                let rect = group
                    .iter()
                    .map(|&c| nodes[c as usize].rect)
                    .reduce(Rect::union)
                    .expect("non-empty group");
                nodes.push(Node { rect, kind: NodeKind::Internal { children: group.to_vec() } });
                next.push((nodes.len() - 1) as u32);
            }
            level = next;
        }
        let root = Some(level[0]);
        RTree { items, nodes, root }
    }

    /// Number of indexed intervals.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// All indexed intervals in packed order.
    pub fn items(&self) -> &[Interval] {
        &self.items
    }

    /// Visits every interval whose endpoint point lies in the window and
    /// returns the number of stored items examined (items of every leaf
    /// the traversal touched) — the backend's scan-effort telemetry.
    pub fn window_query<'t>(&'t self, window: &Window, mut visit: impl FnMut(&'t Interval)) -> u64 {
        if window.is_empty() {
            return 0;
        }
        let Some(root) = self.root else { return 0 };
        let mut examined = 0u64;
        let mut stack = vec![root];
        while let Some(ni) = stack.pop() {
            let node = &self.nodes[ni as usize];
            if !node.rect.intersects_window(window) {
                continue;
            }
            match &node.kind {
                NodeKind::Leaf { lo, hi } => {
                    let slice = &self.items[*lo as usize..*hi as usize];
                    examined += slice.len() as u64;
                    if node.rect.inside_window(window) {
                        // Whole leaf covered: no per-item test needed.
                        for iv in slice {
                            visit(iv);
                        }
                    } else {
                        for iv in slice {
                            if window.contains(iv) {
                                visit(iv);
                            }
                        }
                    }
                }
                NodeKind::Internal { children } => {
                    stack.extend(children.iter().rev().copied());
                }
            }
        }
        examined
    }

    /// Collects matching intervals (window query convenience).
    pub fn window_collect(&self, window: &Window) -> Vec<Interval> {
        let mut out = Vec::new();
        self.window_query(window, |iv| out.push(*iv));
        out
    }

    /// Height of the tree (0 for empty), for structure tests.
    pub fn height(&self) -> usize {
        let Some(root) = self.root else { return 0 };
        let mut h = 1;
        let mut ni = root;
        loop {
            match &self.nodes[ni as usize].kind {
                NodeKind::Leaf { .. } => return h,
                NodeKind::Internal { children } => {
                    h += 1;
                    ni = children[0];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn iv(id: u64, s: i64, e: i64) -> Interval {
        Interval::new(id, s, e).unwrap()
    }

    fn sample(n: u64) -> Vec<Interval> {
        (0..n)
            .map(|i| iv(i, (i as i64 * 37) % 500, (i as i64 * 37) % 500 + (i as i64 % 40)))
            .collect()
    }

    #[test]
    fn empty_tree_queries_nothing() {
        let t = RTree::bulk_load(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.window_collect(&Window::all()), vec![]);
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn full_window_returns_everything() {
        let items = sample(100);
        let t = RTree::bulk_load(items.clone());
        let mut got = t.window_collect(&Window::all());
        got.sort_by_key(|i| i.id);
        let mut want = items;
        want.sort_by_key(|i| i.id);
        assert_eq!(got, want);
    }

    #[test]
    fn empty_window_returns_nothing() {
        let t = RTree::bulk_load(sample(50));
        let w = Window { start: (10.0, 5.0), end: (0.0, 100.0) };
        assert!(w.is_empty());
        assert_eq!(t.window_collect(&w).len(), 0);
    }

    #[test]
    fn tree_height_grows_logarithmically() {
        assert_eq!(RTree::bulk_load(sample(10)).height(), 1);
        let t = RTree::bulk_load(sample(1000));
        // 1000 items / 16 = 63 leaves → 2 internal levels.
        assert!(t.height() <= 3, "height {}", t.height());
    }

    #[test]
    fn window_query_half_open_infinities() {
        let t = RTree::bulk_load(vec![iv(0, 0, 5), iv(1, 10, 15), iv(2, 20, 25)]);
        let w = Window { start: (9.0, f64::INFINITY), end: (f64::NEG_INFINITY, f64::INFINITY) };
        let got = t.window_collect(&w);
        assert_eq!(got.iter().map(|i| i.id).collect::<Vec<_>>(), vec![1, 2]);
    }

    proptest! {
        /// R-tree window queries agree exactly with a linear scan.
        #[test]
        fn matches_linear_scan(
            points in proptest::collection::vec((0i64..200, 0i64..60), 0..300),
            ws in 0i64..200, ww in 0i64..100,
            we in 0i64..260, wh in 0i64..100,
        ) {
            let items: Vec<Interval> = points
                .iter()
                .enumerate()
                .map(|(i, (s, w))| iv(i as u64, *s, s + w))
                .collect();
            let t = RTree::bulk_load(items.clone());
            let w = Window {
                start: (ws as f64, (ws + ww) as f64),
                end: (we as f64, (we + wh) as f64),
            };
            let mut got = t.window_collect(&w);
            got.sort_by_key(|i| i.id);
            let mut want: Vec<Interval> =
                items.iter().filter(|i| w.contains(i)).copied().collect();
            want.sort_by_key(|i| i.id);
            prop_assert_eq!(got, want);
        }
    }
}
