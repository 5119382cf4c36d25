//! Chunked bitsets over dense id spaces, and the solver's visited-state
//! tables built from them (DESIGN.md §11).
//!
//! [`CtxInterner`](crate::interner::CtxInterner) hands out *dense* 32-bit
//! context ids, which makes a bitset the natural set representation for
//! "which contexts has this node been visited in". Context ids grow
//! monotonically over a run but any single traversal touches a small,
//! clustered subset, so the bitset is **chunked**: a `Vec` of
//! lazily-allocated fixed-size `u64`-word blocks. Untouched regions of the
//! id space cost one `Option` pointer per chunk; touched regions pay one
//! cache line per 512 ids.
//!
//! [`DenseVisitSet`] layers a per-node vector of inline-first rows on top
//! (a few ctx ids stored directly in the row, spilling to a chunked bitset
//! only on overflow) — the dense replacement for the solver's historical
//! `FxHashMap<NodeId, FxHashSet<CtxId>>` visit sets — and [`StateSet`]
//! is the small trait that keeps the hash implementation
//! ([`HashVisitSet`]) selectable for differential testing.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::interner::CtxId;

/// `u64` words per chunk: 8 words = 512 bits = one cache line.
pub const CHUNK_WORDS: usize = 8;
/// Ids covered by one chunk.
pub const CHUNK_BITS: usize = CHUNK_WORDS * 64;

/// One storage chunk: eight `u64` words = 512 bits = one cache line, and
/// exactly one AVX-512 register (two NEON pair ops) for the kernels below.
pub type Chunk = [u64; CHUNK_WORDS];

/// Chunk kernels: straight-line u64×8 block ops with no data-dependent
/// branches or early exits, so LLVM autovectorises each loop into a single
/// full-width vector operation per chunk.
pub mod kernel {
    use super::{Chunk, CHUNK_WORDS};

    /// `dst |= src`; returns how many bits the union newly set.
    #[inline]
    pub fn union_into(dst: &mut Chunk, src: &Chunk) -> u32 {
        let mut added = 0u32;
        for w in 0..CHUNK_WORDS {
            added += (src[w] & !dst[w]).count_ones();
            dst[w] |= src[w];
        }
        added
    }

    /// Population count of the whole chunk.
    #[inline]
    pub fn count_ones(c: &Chunk) -> u32 {
        c.iter().map(|w| w.count_ones()).sum()
    }

    /// `dst = 0` (the retained-capacity clear).
    #[inline]
    pub fn zero(dst: &mut Chunk) {
        dst.fill(0);
    }
}

/// A lazily-allocated bitset over a dense `u32` id space.
///
/// Storage is a vector of optional fixed-size chunks; a chunk is allocated
/// the first time any id inside it is inserted. Cleared sets keep their
/// chunk allocations ([`ChunkedBitset::clear`]), so reuse across
/// traversals costs a `memset` of the touched chunks, not an allocation.
#[derive(Default, Debug, Clone)]
pub struct ChunkedBitset {
    chunks: Vec<Option<Box<[u64; CHUNK_WORDS]>>>,
    len: usize,
}

impl ChunkedBitset {
    /// Creates an empty set.
    pub fn new() -> Self {
        ChunkedBitset::default()
    }

    /// Number of ids in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `id`; returns `true` iff it was not already present.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let chunk_idx = id as usize / CHUNK_BITS;
        if chunk_idx >= self.chunks.len() {
            self.chunks.resize_with(chunk_idx + 1, || None);
        }
        let chunk = self.chunks[chunk_idx].get_or_insert_with(|| Box::new([0u64; CHUNK_WORDS]));
        let bit = id as usize % CHUNK_BITS;
        let word = &mut chunk[bit / 64];
        let mask = 1u64 << (bit % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        let chunk_idx = id as usize / CHUNK_BITS;
        match self.chunks.get(chunk_idx) {
            Some(Some(chunk)) => {
                let bit = id as usize % CHUNK_BITS;
                chunk[bit / 64] & (1u64 << (bit % 64)) != 0
            }
            _ => false,
        }
    }

    /// Empties the set, **retaining** chunk allocations for reuse.
    pub fn clear(&mut self) {
        for chunk in self.chunks.iter_mut().flatten() {
            kernel::zero(chunk);
        }
        self.len = 0;
    }

    /// Unions `other` into `self` — one [`kernel::union_into`] per
    /// allocated source chunk.
    pub fn union_with(&mut self, other: &ChunkedBitset) {
        if other.chunks.len() > self.chunks.len() {
            self.chunks.resize_with(other.chunks.len(), || None);
        }
        for (i, oc) in other.chunks.iter().enumerate() {
            let Some(oc) = oc else { continue };
            let sc = self.chunks[i].get_or_insert_with(|| Box::new([0u64; CHUNK_WORDS]));
            self.len += kernel::union_into(sc, oc) as usize;
        }
    }

    /// Recounts the members chunk-by-chunk with [`kernel::count_ones`].
    /// Always equals [`ChunkedBitset::len`]; exists so the kernels (and
    /// the incremental `len` bookkeeping) can be cross-checked.
    pub fn count_ones(&self) -> usize {
        self.chunks
            .iter()
            .flatten()
            .map(|c| kernel::count_ones(c) as usize)
            .sum()
    }

    /// Number of chunk slots (allocated or not) — the iteration bound for
    /// [`ChunkedBitset::chunk`].
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The `ci`-th chunk, or `None` if that slot was never touched. Chunk
    /// `ci` covers ids `ci * CHUNK_BITS ..`.
    #[inline]
    pub fn chunk(&self, ci: usize) -> Option<&Chunk> {
        self.chunks.get(ci).and_then(|c| c.as_deref())
    }

    /// Iterates the set ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.chunks.iter().enumerate().flat_map(|(ci, chunk)| {
            let base = (ci * CHUNK_BITS) as u32;
            chunk
                .as_deref()
                .map(|words| SetBits::new(words, base))
                .into_iter()
                .flatten()
        })
    }

    /// `u64` words currently allocated (the honest memory figure dense
    /// state reporting uses; `len()` counts logical members instead).
    pub fn allocated_words(&self) -> u64 {
        (self.chunks.iter().flatten().count() * CHUNK_WORDS) as u64 + self.chunks.len() as u64 / 8
    }
}

/// Iterator over the set bits of one chunk's words.
struct SetBits<'a> {
    words: &'a [u64; CHUNK_WORDS],
    word_idx: usize,
    current: u64,
    base: u32,
}

impl<'a> SetBits<'a> {
    fn new(words: &'a [u64; CHUNK_WORDS], base: u32) -> Self {
        SetBits {
            words,
            word_idx: 0,
            current: words[0],
            base,
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros();
                self.current &= self.current - 1;
                return Some(self.base + self.word_idx as u32 * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= CHUNK_WORDS {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// A visited-state table keyed `(node, ctx)`: the contract the solver's
/// traversal loops need from their `visited` / `pts_seen` / `alias` sets.
///
/// Implementations must make [`StateSet::insert`] *pure membership*: no
/// iteration order is ever observed through this trait except
/// [`StateSet::for_ctxs`], whose callers are required to be
/// order-insensitive (the solver canonically re-sorts everything that
/// crosses a traversal boundary). That is what keeps hash- and dense-backed
/// runs bit-identical.
pub trait StateSet: Default {
    /// Records `(node, ctx)`; returns `true` iff the state was new.
    fn insert(&mut self, node: u32, ctx: CtxId) -> bool;
    /// Whether `(node, ctx)` has been recorded.
    fn contains(&self, node: u32, ctx: CtxId) -> bool;
    /// Calls `f` for every ctx recorded against `node` (any order).
    fn for_ctxs(&self, node: u32, f: impl FnMut(CtxId));
    /// Empties the table, retaining allocations where possible.
    fn reset(&mut self);
    /// Approximate `u64` words of memory currently held. Dense sets report
    /// allocated bitset words exactly; hash sets report a two-words-per-
    /// entry estimate (key + bucket overhead).
    fn approx_words(&self) -> u64;
}

/// The historical hash-of-hashes visit set (`node → {ctx}`), kept as the
/// differential-testing reference for [`DenseVisitSet`].
#[derive(Default)]
pub struct HashVisitSet {
    map: FxHashMap<u32, FxHashSet<CtxId>>,
}

impl StateSet for HashVisitSet {
    #[inline]
    fn insert(&mut self, node: u32, ctx: CtxId) -> bool {
        self.map.entry(node).or_default().insert(ctx)
    }

    #[inline]
    fn contains(&self, node: u32, ctx: CtxId) -> bool {
        self.map.get(&node).is_some_and(|s| s.contains(&ctx))
    }

    fn for_ctxs(&self, node: u32, mut f: impl FnMut(CtxId)) {
        if let Some(s) = self.map.get(&node) {
            for &c in s {
                f(c);
            }
        }
    }

    fn reset(&mut self) {
        // Clear in place, keeping node entries and set capacity — the
        // mirror of the dense table's retained rows, so pooled reuse and
        // footprint reporting behave the same across backends.
        for s in self.map.values_mut() {
            s.clear();
        }
    }

    fn approx_words(&self) -> u64 {
        self.map.values().map(|s| 2 * s.capacity() as u64 + 2).sum()
    }
}

/// Inline ctx slots per [`DenseRow`] before spilling to a bitset. Solver
/// visit sets are heavily skewed: on the Table I suite the typical node is
/// visited in 1–3 contexts, so four slots cover almost every row.
const INLINE_CTXS: usize = 4;

/// One row of a [`DenseVisitSet`]. The epoch stamp makes `reset` O(1) —
/// a row whose stamp is stale is logically empty and is re-initialised
/// (inline slots emptied, spill allocation kept) on its first touch of the
/// new epoch.
///
/// The row is **inline-first**: the first [`INLINE_CTXS`] contexts live in
/// the row itself, so the hot membership test is one linear scan in the
/// same cache line as the epoch — no second pointer chase and no hashing.
/// Only rows that overflow pay for a [`ChunkedBitset`] (recycled across
/// epochs, so a hot row allocates once per table lifetime).
#[derive(Default)]
struct DenseRow {
    epoch: u64,
    /// Inline slots in use; meaningless once `spilled`.
    len: u8,
    spilled: bool,
    inline: [u32; INLINE_CTXS],
    spill: Option<Box<ChunkedBitset>>,
}

/// The dense visited-state table: a vector of inline-first [`DenseRow`]s
/// indexed by node id, each holding the interned `CtxId`s the node was
/// visited in.
///
/// Rows are allocated on first touch (the vector grows to the highest node
/// id actually visited, not the graph size), and the whole table resets in
/// O(1) via an epoch bump, so pooled reuse across the solver's nested
/// traversals costs nothing up front.
#[derive(Default)]
pub struct DenseVisitSet {
    rows: Vec<DenseRow>,
    epoch: u64,
}

impl StateSet for DenseVisitSet {
    #[inline]
    fn insert(&mut self, node: u32, ctx: CtxId) -> bool {
        let idx = node as usize;
        if idx >= self.rows.len() {
            self.rows.resize_with(idx + 1, DenseRow::default);
        }
        let row = &mut self.rows[idx];
        if row.epoch != self.epoch {
            row.epoch = self.epoch;
            row.len = 0;
            row.spilled = false;
        }
        let raw = ctx.raw();
        if row.spilled {
            return row
                .spill
                .as_mut()
                .expect("spilled row has bits")
                .insert(raw);
        }
        let n = row.len as usize;
        if row.inline[..n].contains(&raw) {
            return false;
        }
        if n < INLINE_CTXS {
            row.inline[n] = raw;
            row.len = n as u8 + 1;
            return true;
        }
        // Overflow: move the inline slots into the (recycled) spill bitset.
        let spill = row.spill.get_or_insert_with(Box::default);
        spill.clear();
        for &v in &row.inline {
            spill.insert(v);
        }
        row.spilled = true;
        spill.insert(raw)
    }

    #[inline]
    fn contains(&self, node: u32, ctx: CtxId) -> bool {
        let Some(row) = self.rows.get(node as usize) else {
            return false;
        };
        if row.epoch != self.epoch {
            return false;
        }
        let raw = ctx.raw();
        if row.spilled {
            row.spill.as_ref().is_some_and(|b| b.contains(raw))
        } else {
            row.inline[..row.len as usize].contains(&raw)
        }
    }

    fn for_ctxs(&self, node: u32, mut f: impl FnMut(CtxId)) {
        let Some(row) = self.rows.get(node as usize) else {
            return;
        };
        if row.epoch != self.epoch {
            return;
        }
        if row.spilled {
            if let Some(bits) = row.spill.as_deref() {
                for raw in bits.iter() {
                    f(CtxId::from_raw(raw));
                }
            }
        } else {
            for &raw in &row.inline[..row.len as usize] {
                f(CtxId::from_raw(raw));
            }
        }
    }

    #[inline]
    fn reset(&mut self) {
        self.epoch += 1;
    }

    fn approx_words(&self) -> u64 {
        // Count every allocated row (header + any spill bitset): stale
        // rows' allocations are still resident memory even though they are
        // logically empty this epoch.
        let row_words = (std::mem::size_of::<DenseRow>() / 8) as u64;
        self.rows
            .iter()
            .map(|r| row_words + r.spill.as_deref().map_or(0, ChunkedBitset::allocated_words))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_insert_contains_len() {
        let mut b = ChunkedBitset::new();
        assert!(b.is_empty());
        assert!(b.insert(3));
        assert!(!b.insert(3));
        assert!(b.insert(0));
        assert!(b.insert(511));
        assert!(b.insert(512)); // second chunk
        assert!(b.insert(100_000)); // far chunk
        assert_eq!(b.len(), 5);
        assert!(b.contains(3));
        assert!(b.contains(512));
        assert!(!b.contains(4));
        assert!(!b.contains(99_999));
    }

    #[test]
    fn bitset_iter_is_sorted_and_complete() {
        let ids = [7u32, 0, 513, 64, 65, 8191, 100_000];
        let mut b = ChunkedBitset::new();
        for &i in &ids {
            b.insert(i);
        }
        let got: Vec<u32> = b.iter().collect();
        let mut want = ids.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn bitset_clear_retains_chunks() {
        let mut b = ChunkedBitset::new();
        b.insert(1000);
        let words = b.allocated_words();
        b.clear();
        assert!(b.is_empty());
        assert!(!b.contains(1000));
        assert_eq!(b.allocated_words(), words, "clear keeps allocations");
        assert!(b.insert(1000));
    }

    #[test]
    fn bitset_union() {
        let mut a = ChunkedBitset::new();
        let mut b = ChunkedBitset::new();
        for i in [1u32, 5, 600] {
            a.insert(i);
        }
        for i in [5u32, 6, 2000] {
            b.insert(i);
        }
        a.union_with(&b);
        let got: Vec<u32> = a.iter().collect();
        assert_eq!(got, vec![1, 5, 6, 600, 2000]);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn chunk_kernels_match_scalar_semantics() {
        let mut a: Chunk = [0; CHUNK_WORDS];
        let mut b: Chunk = [0; CHUNK_WORDS];
        assert_eq!(kernel::count_ones(&a), 0);
        a[0] = 0b1011;
        a[7] = 1 << 63;
        b[0] = 0b0110;
        b[3] = 0xFF;
        assert_eq!(kernel::count_ones(&a), 4);
        // union adds exactly the bits of b missing from a
        let mut u = a;
        assert_eq!(kernel::union_into(&mut u, &b), 9);
        assert_eq!(kernel::count_ones(&u), 13);
        assert_eq!(u[0], 0b1111);
        kernel::zero(&mut u);
        assert_eq!(kernel::count_ones(&u), 0);
    }

    #[test]
    fn chunk_accessors_cover_iteration() {
        let mut a = ChunkedBitset::new();
        for i in [3u32, 511, 512, 1999] {
            a.insert(i);
        }
        assert_eq!(a.chunk_count(), 4);
        assert!(a.chunk(0).is_some());
        assert!(a.chunk(2).is_none(), "untouched slot stays unallocated");
        let per_chunk: u32 = (0..a.chunk_count())
            .filter_map(|ci| a.chunk(ci))
            .map(kernel::count_ones)
            .sum();
        assert_eq!(per_chunk as usize, a.len());
        // A cleared chunk stays allocated, with no bits set.
        a.clear();
        assert!(a.chunk(0).is_some());
        assert_eq!(kernel::count_ones(a.chunk(0).unwrap()), 0);
    }

    /// Deterministic model test: a cheap LCG drives interleaved
    /// insert/contains/clear/union against a `BTreeSet` model.
    #[test]
    fn bitset_matches_btreeset_model() {
        use std::collections::BTreeSet;
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let mut b = ChunkedBitset::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        let mut other = ChunkedBitset::new();
        let mut other_model: BTreeSet<u32> = BTreeSet::new();
        for step in 0..20_000 {
            let id = rng() % 5000;
            match rng() % 10 {
                0..=5 => {
                    assert_eq!(b.insert(id), model.insert(id), "insert {id}");
                }
                6 | 7 => {
                    assert_eq!(b.contains(id), model.contains(&id), "contains {id}");
                }
                8 => {
                    other.insert(id);
                    other_model.insert(id);
                }
                _ => {
                    if step % 1000 == 999 {
                        b.clear();
                        model.clear();
                    } else {
                        b.union_with(&other);
                        model.extend(other_model.iter().copied());
                    }
                }
            }
            assert_eq!(b.len(), model.len(), "len after step {step}");
            assert_eq!(b.count_ones(), model.len(), "recount after step {step}");
        }
        let got: Vec<u32> = b.iter().collect();
        let want: Vec<u32> = model.into_iter().collect();
        assert_eq!(got, want);
    }

    /// A row that overflows its inline slots spills to a bitset; after a
    /// reset the recycled spill must not resurrect contexts from the
    /// previous epoch.
    #[test]
    fn dense_row_spills_and_recycles_across_epochs() {
        let mut d = DenseVisitSet::default();
        for c in 0..10u32 {
            assert!(d.insert(7, CtxId::from_raw(c)));
            assert!(!d.insert(7, CtxId::from_raw(c)));
        }
        assert!(d.contains(7, CtxId::from_raw(9)));
        let spilled_words = d.approx_words();
        d.reset();
        assert!(!d.contains(7, CtxId::from_raw(3)));
        // The fresh epoch goes inline again; the spill allocation is kept.
        assert!(d.insert(7, CtxId::from_raw(3)));
        assert!(d.contains(7, CtxId::from_raw(3)));
        assert_eq!(d.approx_words(), spilled_words, "spill allocation kept");
        // Overflowing again must not leak last epoch's contexts.
        for c in 100..105u32 {
            assert!(d.insert(7, CtxId::from_raw(c)));
        }
        assert!(!d.contains(7, CtxId::from_raw(9)));
        assert!(d.contains(7, CtxId::from_raw(104)));
        let mut seen: Vec<u32> = Vec::new();
        d.for_ctxs(7, |c| seen.push(c.raw()));
        seen.sort_unstable();
        assert_eq!(seen, vec![3, 100, 101, 102, 103, 104]);
    }

    /// Hash and dense state sets must answer identically under any
    /// operation sequence — the bit-for-bit equivalence the solver's
    /// backend switch rests on.
    #[test]
    fn dense_and_hash_state_sets_agree() {
        let mut seed = 42u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let mut dense = DenseVisitSet::default();
        let mut hash = HashVisitSet::default();
        for round in 0..4 {
            for _ in 0..5000 {
                let n = rng() % 300;
                let c = CtxId::from_raw(rng() % 2000);
                match rng() % 4 {
                    0..=2 => assert_eq!(dense.insert(n, c), hash.insert(n, c)),
                    _ => assert_eq!(dense.contains(n, c), hash.contains(n, c)),
                }
            }
            for n in 0..300 {
                // `for_ctxs` promises no order (inline rows emit insertion
                // order, spilled rows ascending, hash rows hash order), so
                // compare as sorted sets.
                let mut d: Vec<u32> = Vec::new();
                dense.for_ctxs(n, |c| d.push(c.raw()));
                let mut h: Vec<u32> = Vec::new();
                hash.for_ctxs(n, |c| h.push(c.raw()));
                d.sort_unstable();
                h.sort_unstable();
                assert_eq!(d, h, "ctxs of node {n} in round {round}");
            }
            dense.reset();
            hash.reset();
            assert!(!dense.contains(0, CtxId::EMPTY));
        }
        assert!(dense.approx_words() > 0, "stale rows still counted");
    }
}
