//! Distributions: how a region's points map onto places.

use std::rc::Rc;
use std::sync::Arc;

use dpx10_apgas::PlaceId;

use crate::region::Region2D;

/// The partitioning scheme of a [`Dist`].
#[derive(Clone)]
pub enum DistKind {
    /// Contiguous row blocks, one per place ("divided by the row",
    /// paper Fig. 6).
    BlockRow,
    /// Contiguous column blocks, one per place — the paper's default
    /// ("by default vertices are spliced and distributed along with
    /// column", §VI-B).
    BlockCol,
    /// Rows dealt round-robin across places.
    CyclicRow,
    /// Columns dealt round-robin across places.
    CyclicCol,
    /// Row blocks of the given size dealt round-robin.
    BlockCyclicRow {
        /// Rows per block.
        block: u32,
    },
    /// Column blocks of the given size dealt round-robin.
    BlockCyclicCol {
        /// Columns per block.
        block: u32,
    },
    /// Arbitrary user mapping from `(i, j)` to a *slot* (index into the
    /// distribution's place list) — the §VI-E custom-distribution hook.
    Custom(Arc<dyn Fn(u32, u32) -> usize + Send + Sync>),
}

impl std::fmt::Debug for DistKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistKind::BlockRow => write!(f, "BlockRow"),
            DistKind::BlockCol => write!(f, "BlockCol"),
            DistKind::CyclicRow => write!(f, "CyclicRow"),
            DistKind::CyclicCol => write!(f, "CyclicCol"),
            DistKind::BlockCyclicRow { block } => write!(f, "BlockCyclicRow({block})"),
            DistKind::BlockCyclicCol { block } => write!(f, "BlockCyclicCol({block})"),
            DistKind::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// A distribution of a [`Region2D`] over an ordered list of places.
///
/// Places are addressed through *slots*: slot `s` is `places()[s]`. Using
/// slots (not raw place ids) lets recovery re-target the same scheme onto
/// the surviving places (paper §VI-D: "create a new distributed array
/// among the remaining places").
///
/// The built-in kinds partition one axis (rows or columns) into *lines*.
/// [`Dist::new`] tabulates each line's owner and rank once, so the hot
/// lookups [`Dist::slot_of`] and [`Dist::local_index`] are a table load
/// plus a multiply-add instead of several integer divisions. The table
/// has one 12-byte entry per line of the partitioned axis: `height`
/// entries for row kinds, `width` for column kinds. That is O(cells)
/// only for a degenerate region, such as a 1 x n region split by
/// columns, where it adds 12 bytes per cell.
#[derive(Clone)]
pub struct Dist {
    region: Region2D,
    kind: DistKind,
    places: Arc<[PlaceId]>,
    /// Whether the partitioned axis is the column axis.
    by_col: bool,
    /// Line -> its owner and rank (empty for [`DistKind::Custom`]).
    lines: Box<[Line]>,
    /// Slot -> number of lines it owns (all 0 for [`DistKind::Custom`]).
    slot_lines: Box<[u32]>,
}

impl std::fmt::Debug for Dist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The line table is derived from the fields shown and can be as
        // long as the region is wide; leave it out.
        f.debug_struct("Dist")
            .field("region", &self.region)
            .field("kind", &self.kind)
            .field("places", &self.places)
            .finish_non_exhaustive()
    }
}

/// One line of the partitioned axis.
#[derive(Clone, Copy, Debug)]
struct Line {
    /// Owning slot.
    slot: u32,
    /// Rank of the line among its slot's lines.
    rank: u32,
    /// Local-index stride: the region width for row lines, the owning
    /// slot's line count for column lines.
    stride: u32,
}

impl Dist {
    /// Distributes `region` over `places` with the given `kind`.
    pub fn new(region: Region2D, kind: DistKind, places: Vec<PlaceId>) -> Self {
        assert!(
            !places.is_empty(),
            "a distribution needs at least one place"
        );
        if let DistKind::BlockCyclicRow { block } | DistKind::BlockCyclicCol { block } = kind {
            assert!(block > 0, "block size must be positive");
        }
        let n = places.len() as u32;
        let by_col = matches!(
            kind,
            DistKind::BlockCol | DistKind::CyclicCol | DistKind::BlockCyclicCol { .. }
        );
        let len = match kind {
            DistKind::Custom(_) => 0,
            _ if by_col => region.width,
            _ => region.height,
        };
        let mut slot_lines = vec![0u32; places.len()];
        let mut lines: Vec<Line> = (0..len)
            .map(|x| {
                let slot = match kind {
                    DistKind::BlockRow | DistKind::BlockCol => Self::block_of(len, n, x),
                    DistKind::CyclicRow | DistKind::CyclicCol => x % n,
                    DistKind::BlockCyclicRow { block } | DistKind::BlockCyclicCol { block } => {
                        (x / block) % n
                    }
                    DistKind::Custom(_) => unreachable!("custom kinds have no table"),
                };
                // Ranks count earlier lines of the same slot, which is
                // the closed-form rank of every built-in kind.
                let rank = slot_lines[slot as usize];
                slot_lines[slot as usize] += 1;
                Line {
                    slot,
                    rank,
                    stride: region.width,
                }
            })
            .collect();
        if by_col {
            for line in &mut lines {
                line.stride = slot_lines[line.slot as usize];
            }
        }
        Dist {
            region,
            kind,
            places: places.into(),
            by_col,
            lines: lines.into(),
            slot_lines: slot_lines.into(),
        }
    }

    /// The paper-default distribution: block by column over `places`.
    pub fn default_block_col(region: Region2D, places: Vec<PlaceId>) -> Self {
        Dist::new(region, DistKind::BlockCol, places)
    }

    /// The distributed region.
    pub fn region(&self) -> Region2D {
        self.region
    }

    /// The partitioning scheme.
    pub fn kind(&self) -> &DistKind {
        &self.kind
    }

    /// The ordered target places.
    pub fn places(&self) -> &[PlaceId] {
        &self.places
    }

    /// Number of slots.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.places.len()
    }

    /// The block index owning `x` under balanced blocking.
    #[inline]
    fn block_of(total: u32, n: u32, x: u32) -> u32 {
        let base = total / n;
        let rem = total % n;
        let split = rem * (base + 1); // items before this point sit in big blocks
        if base == 0 {
            // More places than items: item x sits in block x.
            return x;
        }
        if x < split {
            x / (base + 1)
        } else {
            rem + (x - split) / base
        }
    }

    /// The slot owning `(i, j)`.
    #[inline]
    pub fn slot_of(&self, i: u32, j: u32) -> usize {
        debug_assert!(self.region.contains(i, j));
        if let DistKind::Custom(f) = &self.kind {
            let (s, n) = (f(i, j), self.num_slots());
            assert!(s < n, "custom distribution returned slot {s} of {n}");
            return s;
        }
        self.line(i, j).slot as usize
    }

    /// The table entry of the line holding `(i, j)` (built-in kinds).
    #[inline]
    fn line(&self, i: u32, j: u32) -> Line {
        self.lines[if self.by_col { j } else { i } as usize]
    }

    /// The place owning `(i, j)`.
    #[inline]
    pub fn place_of(&self, i: u32, j: u32) -> PlaceId {
        self.places[self.slot_of(i, j)]
    }

    /// Offset of `(i, j)` inside its owner's chunk.
    ///
    /// Offsets are dense per slot: `0..chunk_len(slot)`, row-major over
    /// the slot's points. Built-in kinds read the line table; custom
    /// kinds rank the point among its slot's points.
    #[inline]
    pub fn local_index(&self, i: u32, j: u32) -> usize {
        debug_assert!(self.region.contains(i, j));
        if let DistKind::Custom(f) = &self.kind {
            // Rank of (i, j) among same-slot points in row-major order.
            // O(len) — custom distributions trade speed for flexibility;
            // engines precompute mappings when they matter.
            let slot = f(i, j);
            let mut rank = 0usize;
            for ii in 0..self.region.height {
                for jj in 0..self.region.width {
                    if ii == i && jj == j {
                        return rank;
                    }
                    if f(ii, jj) == slot {
                        rank += 1;
                    }
                }
            }
            unreachable!("({i},{j}) inside region");
        }
        let line = self.line(i, j);
        let (major, minor) = if self.by_col {
            (i, line.rank)
        } else {
            (line.rank, j)
        };
        major as usize * line.stride as usize + minor as usize
    }

    /// Number of points owned by slot `s`.
    pub fn chunk_len(&self, s: usize) -> usize {
        if let DistKind::Custom(f) = &self.kind {
            return self.region.points().filter(|&(i, j)| f(i, j) == s).count();
        }
        let across = if self.by_col {
            self.region.height
        } else {
            self.region.width
        };
        self.slot_lines[s] as usize * across as usize
    }

    /// Iterates the global points owned by slot `s`, in local-index order.
    pub fn iter_slot(&self, s: usize) -> Box<dyn Iterator<Item = (u32, u32)> + '_> {
        if let DistKind::Custom(f) = &self.kind {
            // Custom local indices are row-major ranks: filter in order.
            return Box::new(self.region.points().filter(move |&(i, j)| f(i, j) == s));
        }
        let owned: Rc<[u32]> = (0..self.lines.len() as u32)
            .filter(|&x| self.lines[x as usize].slot as usize == s)
            .collect();
        let (h, w) = (self.region.height, self.region.width);
        if self.by_col {
            Box::new((0..h).flat_map(move |i| {
                let owned = owned.clone();
                (0..owned.len()).map(move |k| (i, owned[k]))
            }))
        } else {
            Box::new((0..owned.len()).flat_map(move |k| {
                let i = owned[k];
                (0..w).map(move |j| (i, j))
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn places(n: u16) -> Vec<PlaceId> {
        (0..n).map(PlaceId).collect()
    }

    /// Exhaustive consistency check: local indices are a dense bijection
    /// per slot, chunk_len matches, iter_slot enumerates in order.
    fn check_dist(d: &Dist) {
        let n = d.num_slots();
        let mut seen: Vec<Vec<bool>> = (0..n).map(|s| vec![false; d.chunk_len(s)]).collect();
        for (i, j) in d.region().points() {
            let s = d.slot_of(i, j);
            assert_eq!(d.place_of(i, j), d.places()[s]);
            let li = d.local_index(i, j);
            assert!(
                li < seen[s].len(),
                "local index {li} out of range for slot {s} ({} points) at ({i},{j}) [{:?}]",
                seen[s].len(),
                d.kind()
            );
            assert!(!seen[s][li], "duplicate local index {li} in slot {s}");
            seen[s][li] = true;
        }
        for (s, slots) in seen.iter().enumerate() {
            assert!(
                slots.iter().all(|&b| b),
                "slot {s} has holes under {:?}",
                d.kind()
            );
            let pts: Vec<_> = d.iter_slot(s).collect();
            assert_eq!(pts.len(), d.chunk_len(s));
            for (rank, (i, j)) in pts.iter().enumerate() {
                assert_eq!(d.local_index(*i, *j), rank, "iter_slot order for slot {s}");
                assert_eq!(d.slot_of(*i, *j), s);
            }
        }
    }

    /// The closed forms the line table replaced: `(slot, local index)`
    /// of `(i, j)` for the built-in kinds, from integer arithmetic alone.
    fn closed_form(kind: &DistKind, h: u32, w: u32, n: u32, i: u32, j: u32) -> (u32, usize) {
        let start = |total: u32, s: u32| s * (total / n) + s.min(total % n);
        let block = |total: u32, x: u32| (0..n).rfind(|&s| start(total, s) <= x).unwrap();
        let (w, iu, ju) = (w as usize, i as usize, j as usize);
        match *kind {
            DistKind::BlockRow => {
                let s = block(h, i);
                (s, (i - start(h, s)) as usize * w + ju)
            }
            DistKind::BlockCol => {
                let s = block(w as u32, j);
                let c0 = start(w as u32, s);
                let local_w = (start(w as u32, s + 1) - c0) as usize;
                (s, iu * local_w + (j - c0) as usize)
            }
            DistKind::CyclicRow => (i % n, (i / n) as usize * w + ju),
            DistKind::CyclicCol => {
                let local_w = (w as u32 - j % n).div_ceil(n) as usize;
                (j % n, iu * local_w + (j / n) as usize)
            }
            DistKind::BlockCyclicRow { block } => {
                let row = (i / (block * n)) * block + i % block;
                ((i / block) % n, row as usize * w + ju)
            }
            DistKind::BlockCyclicCol { block } => {
                let s = (j / block) % n;
                let col = (j / (block * n)) * block + j % block;
                let local_w = (0..w as u32).filter(|&c| (c / block) % n == s).count();
                (s, iu * local_w + col as usize)
            }
            DistKind::Custom(_) => unreachable!(),
        }
    }

    #[test]
    fn line_table_matches_the_closed_forms() {
        // Local indices fix chunk layouts, so the table must reproduce
        // the former arithmetic exactly, not just some bijection.
        for &(h, w, p) in &[(7u32, 5u32, 3u16), (5, 11, 2), (2, 3, 5), (9, 9, 4)] {
            for kind in [
                DistKind::BlockRow,
                DistKind::BlockCol,
                DistKind::CyclicRow,
                DistKind::CyclicCol,
                DistKind::BlockCyclicRow { block: 2 },
                DistKind::BlockCyclicCol { block: 3 },
            ] {
                let d = Dist::new(Region2D::new(h, w), kind.clone(), places(p));
                for (i, j) in d.region().points() {
                    let (s, li) = closed_form(&kind, h, w, u32::from(p), i, j);
                    assert_eq!(
                        (d.slot_of(i, j), d.local_index(i, j)),
                        (s as usize, li),
                        "({i},{j}) of {h}x{w} over {p} [{kind:?}]"
                    );
                }
            }
        }
    }

    #[test]
    fn block_row_and_col_bijective() {
        for &(h, w, p) in &[
            (7u32, 5u32, 3u16),
            (5, 7, 3),
            (4, 4, 4),
            (3, 10, 4),
            (2, 3, 5),
        ] {
            let r = Region2D::new(h, w);
            check_dist(&Dist::new(r, DistKind::BlockRow, places(p)));
            check_dist(&Dist::new(r, DistKind::BlockCol, places(p)));
        }
    }

    #[test]
    fn cyclic_bijective() {
        for &(h, w, p) in &[(7u32, 5u32, 3u16), (5, 7, 2), (4, 9, 4), (9, 4, 4)] {
            let r = Region2D::new(h, w);
            check_dist(&Dist::new(r, DistKind::CyclicRow, places(p)));
            check_dist(&Dist::new(r, DistKind::CyclicCol, places(p)));
        }
    }

    #[test]
    fn block_cyclic_bijective() {
        for &(h, w, p, b) in &[
            (8u32, 6u32, 2u16, 2u32),
            (9, 9, 3, 2),
            (10, 7, 2, 3),
            (5, 11, 3, 4),
        ] {
            let r = Region2D::new(h, w);
            check_dist(&Dist::new(
                r,
                DistKind::BlockCyclicRow { block: b },
                places(p),
            ));
            check_dist(&Dist::new(
                r,
                DistKind::BlockCyclicCol { block: b },
                places(p),
            ));
        }
    }

    #[test]
    fn custom_bijective() {
        let r = Region2D::new(6, 6);
        let d = Dist::new(
            r,
            DistKind::Custom(Arc::new(|i, j| ((i / 3) * 2 + j / 3) as usize)),
            places(4),
        );
        check_dist(&d);
    }

    #[test]
    fn block_row_matches_paper_fig6() {
        // Fig. 6 (a): 3 rows × 4 cols over 3 places, divided by row —
        // row r goes to place r.
        let d = Dist::new(Region2D::new(3, 4), DistKind::BlockRow, places(3));
        for j in 0..4 {
            assert_eq!(d.place_of(0, j), PlaceId(0));
            assert_eq!(d.place_of(1, j), PlaceId(1));
            assert_eq!(d.place_of(2, j), PlaceId(2));
        }
    }

    #[test]
    fn default_is_block_col() {
        let d = Dist::default_block_col(Region2D::new(4, 8), places(2));
        assert_eq!(d.place_of(3, 0), PlaceId(0));
        assert_eq!(d.place_of(0, 7), PlaceId(1));
    }

    #[test]
    fn more_places_than_rows() {
        let d = Dist::new(Region2D::new(2, 3), DistKind::BlockRow, places(5));
        check_dist(&d);
        // Slots beyond the rows are empty.
        assert_eq!(d.chunk_len(4), 0);
    }

    #[test]
    fn retarget_onto_surviving_places() {
        // The recovery path builds the same scheme over fewer places.
        let r = Region2D::new(6, 6);
        let before = Dist::new(r, DistKind::BlockRow, places(3));
        let after = Dist::new(r, DistKind::BlockRow, vec![PlaceId(0), PlaceId(2)]);
        check_dist(&after);
        assert_eq!(before.num_slots(), 3);
        assert_eq!(after.num_slots(), 2);
        assert_eq!(after.place_of(5, 0), PlaceId(2));
    }
}
