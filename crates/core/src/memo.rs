//! The line memo of a gate model's snap search.
//!
//! Queries with the same `a_in` and `a_prev_out` bits lie on one *line* of
//! the normalized feature space: they share y and z, and x grows with `t`.
//! Along a line each training point is nearest on one interval (a Voronoi
//! cell is convex), so the memo keeps, per line, sorted `x` intervals over
//! which one node is the certified unique nearest
//! ([`crate::ValidRegion`] decides what is certified). A row inside an
//! interval skips the search; the memo never changes an answer.
//!
//! The memo is bounded: it holds at most [`MEMO_LINES`] lines and
//! [`MEMO_RUNS`] intervals. A certified search it has no room for is
//! *refused*; after [`MEMO_LINES`] refusals the memo sweeps out every line
//! no lookup has found since the previous sweep. Lines the traffic keeps
//! asking stay, and traffic that moves to new lines gets room for them.

/// Lines one memo holds at most.
pub(crate) const MEMO_LINES: usize = 512;
/// Intervals one memo holds at most, over all its lines.
pub(crate) const MEMO_RUNS: usize = 2048;
/// Slots of the line index: twice the lines, so a probe ends soon.
const INDEX_SLOTS: usize = 2 * MEMO_LINES;
/// The most heap bytes one memo holds: [`LineMemo::bytes`] when full.
pub(crate) const MEMO_BYTES: usize = INDEX_SLOTS * std::mem::size_of::<u16>()
    + MEMO_LINES * std::mem::size_of::<Line>()
    + MEMO_RUNS * std::mem::size_of::<Run>();
/// The end of a line's interval list.
const END: u32 = u32::MAX;

/// Certified nearest-node intervals along query lines.
#[derive(Debug, Default)]
pub(crate) struct LineMemo {
    /// Open-addressed line index: a line's position plus one, 0 for an
    /// empty slot. Allocated with the first line.
    index: Vec<u16>,
    lines: Vec<Line>,
    /// The intervals of every line, each line's linked in ascending `x`.
    runs: Vec<Run>,
    /// Certified searches refused since the last sweep.
    refused: usize,
}

/// A line: the `a_in` and `a_prev_out` bits, its first interval, and
/// whether a lookup found it since the last sweep.
#[derive(Debug, Clone, Copy)]
struct Line {
    key: [u64; 2],
    head: u32,
    used: bool,
}

/// Node `node` is the certified unique nearest for every `x` in
/// `lo..=hi`; `next` is the line's next interval.
#[derive(Debug, Clone, Copy)]
struct Run {
    lo: f64,
    hi: f64,
    node: u32,
    next: u32,
}

/// Where a search's `x` falls on a known line: the intervals just below
/// and just above it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gap {
    line: usize,
    below: u32,
    above: u32,
}

/// A memo lookup: the certified node, or the gap a search may fill.
pub(crate) enum Lookup {
    Hit(usize),
    Miss(Option<Gap>),
}

impl LineMemo {
    /// The node certified at `x` on line `key`, or where a certified
    /// search at `x` would go. Marks the line as in use.
    pub(crate) fn lookup(&mut self, key: [u64; 2], x: f64) -> Lookup {
        let Some(line) = self.find(key) else {
            return Lookup::Miss(None);
        };
        self.lines[line].used = true;
        let (mut below, mut at) = (END, self.lines[line].head);
        while at != END {
            let run = self.runs[at as usize];
            if x < run.lo {
                break;
            }
            if x <= run.hi {
                return Lookup::Hit(run.node as usize);
            }
            (below, at) = (at, run.next);
        }
        Lookup::Miss(Some(Gap {
            line,
            below,
            above: at,
        }))
    }

    /// Records that `node` is the certified unique nearest at `x` on line
    /// `key`, where [`LineMemo::lookup`] found `gap`: widens the interval
    /// next to `x` that names `node`, or starts an interval (and a line)
    /// if there is room, and otherwise counts a refusal.
    pub(crate) fn learn(&mut self, key: [u64; 2], gap: Option<Gap>, x: f64, node: usize) {
        let node = u32::try_from(node).expect("regions hold fewer than 2^32 points");
        if let Some(gap) = gap {
            // A bracket takes two certified ends that name the same node.
            if gap.below != END && self.runs[gap.below as usize].node == node {
                self.runs[gap.below as usize].hi = x;
                return;
            }
            if gap.above != END && self.runs[gap.above as usize].node == node {
                self.runs[gap.above as usize].lo = x;
                return;
            }
        }
        if self.runs.len() == MEMO_RUNS || (gap.is_none() && self.lines.len() == MEMO_LINES) {
            self.refused += 1;
            if self.refused == MEMO_LINES {
                self.sweep();
            }
            return;
        }
        let gap = gap.unwrap_or_else(|| {
            self.lines.push(Line {
                key,
                head: END,
                used: true,
            });
            self.place(self.lines.len() - 1);
            Gap {
                line: self.lines.len() - 1,
                below: END,
                above: END,
            }
        });
        let at = self.runs.len() as u32;
        self.runs.push(Run {
            lo: x,
            hi: x,
            node,
            next: gap.above,
        });
        if gap.below == END {
            self.lines[gap.line].head = at;
        } else {
            self.runs[gap.below as usize].next = at;
        }
    }

    /// The heap bytes the memo holds.
    pub(crate) fn bytes(&self) -> usize {
        self.index.capacity() * std::mem::size_of::<u16>()
            + self.lines.capacity() * std::mem::size_of::<Line>()
            + self.runs.capacity() * std::mem::size_of::<Run>()
    }

    /// Drops the lines no lookup found since the last sweep, with their
    /// intervals, and unmarks the rest. Capacities stay as they are.
    fn sweep(&mut self) {
        let capacity = self.runs.capacity();
        let runs = std::mem::replace(&mut self.runs, Vec::with_capacity(capacity));
        self.lines.retain(|line| line.used);
        self.index.fill(0);
        for line in 0..self.lines.len() {
            let (mut at, mut last) = (self.lines[line].head, END);
            self.lines[line].head = END;
            self.lines[line].used = false;
            while at != END {
                let run = runs[at as usize];
                let copy = self.runs.len() as u32;
                self.runs.push(Run { next: END, ..run });
                if last == END {
                    self.lines[line].head = copy;
                } else {
                    self.runs[last as usize].next = copy;
                }
                (last, at) = (copy, run.next);
            }
            self.place(line);
        }
        self.refused = 0;
    }

    fn slot(key: [u64; 2]) -> usize {
        let mixed = (key[0] ^ key[1].rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (mixed >> (64 - INDEX_SLOTS.ilog2())) as usize
    }

    fn find(&self, key: [u64; 2]) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mut slot = Self::slot(key);
        loop {
            let line = usize::from(self.index[slot]).checked_sub(1)?;
            if self.lines[line].key == key {
                return Some(line);
            }
            slot = (slot + 1) % INDEX_SLOTS;
        }
    }

    /// Enters `lines[line]` in the index.
    fn place(&mut self, line: usize) {
        if self.index.is_empty() {
            self.index = vec![0; INDEX_SLOTS];
        }
        let mut slot = Self::slot(self.lines[line].key);
        while self.index[slot] != 0 {
            slot = (slot + 1) % INDEX_SLOTS;
        }
        self.index[slot] = (line + 1) as u16;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(line: usize) -> [u64; 2] {
        [line as u64, 1]
    }

    /// Looks `x` up on `line` and, on a miss, learns `node` there.
    fn visit(memo: &mut LineMemo, line: usize, x: f64, node: usize) -> Option<usize> {
        match memo.lookup(key(line), x) {
            Lookup::Hit(node) => Some(node),
            Lookup::Miss(gap) => {
                memo.learn(key(line), gap, x, node);
                None
            }
        }
    }

    fn answers(memo: &mut LineMemo, line: usize, x: f64) -> Option<usize> {
        match memo.lookup(key(line), x) {
            Lookup::Hit(node) => Some(node),
            Lookup::Miss(_) => None,
        }
    }

    #[test]
    fn a_full_memo_sweeps_out_the_lines_no_lookup_found() {
        let mut memo = LineMemo::default();
        // Line 0 holds three intervals: [0, 1] → 5, [2, 3] → 6, [4, 4] → 7.
        for (x, node) in [(0.0, 5), (1.0, 5), (2.0, 6), (3.0, 6), (4.0, 7)] {
            assert_eq!(visit(&mut memo, 0, x, node), None);
        }
        for line in 1..MEMO_LINES {
            visit(&mut memo, line, 0.0, line);
        }
        assert!(memo.bytes() <= MEMO_BYTES);
        // Full: new lines are refused. The first sweep keeps every line
        // (each was learned since the start) and unmarks them all.
        for line in MEMO_LINES..2 * MEMO_LINES {
            visit(&mut memo, line, 0.0, line);
            assert_eq!(answers(&mut memo, line, 0.0), None);
        }
        // Ask the even lines only; the next sweep drops the odd ones.
        for line in (2..MEMO_LINES).step_by(2) {
            assert_eq!(answers(&mut memo, line, 0.0), Some(line));
        }
        assert_eq!(answers(&mut memo, 0, 0.5), Some(5));
        for line in 2 * MEMO_LINES..3 * MEMO_LINES {
            visit(&mut memo, line, 0.0, line);
        }
        for line in (1..MEMO_LINES).step_by(2) {
            assert!(matches!(memo.lookup(key(line), 0.0), Lookup::Miss(None)));
        }
        for line in (2..MEMO_LINES).step_by(2) {
            assert_eq!(answers(&mut memo, line, 0.0), Some(line));
        }
        // The kept line's intervals kept their order and their nodes.
        let probes = [(0.5, Some(5)), (1.5, None), (2.5, Some(6)), (4.0, Some(7))];
        for (x, node) in probes {
            assert_eq!(answers(&mut memo, 0, x), node, "x = {x}");
        }
        // The freed room takes new lines.
        for line in 3 * MEMO_LINES..3 * MEMO_LINES + MEMO_LINES / 2 {
            visit(&mut memo, line, 0.0, line);
            assert_eq!(answers(&mut memo, line, 0.0), Some(line));
        }
        assert!(memo.bytes() <= MEMO_BYTES);
    }
}
