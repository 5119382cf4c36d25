//! Chunked bitsets over dense id spaces: the node and field read-sets of
//! the solver's reverse-dependency footprints (DESIGN.md §12).
//!
//! Node and field ids are dense `u32`s, but any single traversal touches a
//! small, clustered subset of them, so the bitset is **chunked**: a `Vec`
//! of lazily-allocated fixed-size `u64`-word blocks. Untouched regions of
//! the id space cost one `Option` pointer per chunk; touched regions pay
//! one cache line per 512 ids.

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

    /// `dst |= src`.
    #[inline]
    pub fn union_into(dst: &mut Chunk, src: &Chunk) {
        for w in 0..CHUNK_WORDS {
            dst[w] |= src[w];
        }
    }

    /// Population count of the whole chunk.
    #[inline]
    pub fn count_ones(c: &Chunk) -> u32 {
        c.iter().map(|w| w.count_ones()).sum()
    }
}

/// A lazily-allocated bitset over a dense `u32` id space.
///
/// Storage is a vector of optional fixed-size chunks; a chunk is allocated
/// the first time any id inside it is inserted. Ids are never removed, so
/// every allocated chunk holds at least one id.
#[derive(Default, Debug, Clone)]
pub struct ChunkedBitset {
    chunks: Vec<Option<Box<[u64; CHUNK_WORDS]>>>,
}

impl ChunkedBitset {
    /// Whether the set is empty: no chunk was ever allocated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.chunks.iter().all(Option::is_none)
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

    /// Unions `other` into `self` — one [`kernel::union_into`] per
    /// allocated source chunk.
    pub fn union_with(&mut self, other: &ChunkedBitset) {
        if other.chunks.len() > self.chunks.len() {
            self.chunks.resize_with(other.chunks.len(), || None);
        }
        for (i, oc) in other.chunks.iter().enumerate() {
            let Some(oc) = oc else { continue };
            let sc = self.chunks[i].get_or_insert_with(|| Box::new([0u64; CHUNK_WORDS]));
            kernel::union_into(sc, oc);
        }
    }

    /// Number of ids in the set, counted chunk by chunk with
    /// [`kernel::count_ones`].
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_insert_contains_count() {
        let mut b = ChunkedBitset::default();
        assert!(b.is_empty());
        assert!(b.insert(3));
        assert!(!b.insert(3));
        assert!(b.insert(0));
        assert!(b.insert(511));
        assert!(b.insert(512)); // second chunk
        assert!(b.insert(100_000)); // far chunk
        assert_eq!(b.count_ones(), 5);
        assert!(b.contains(3));
        assert!(b.contains(512));
        assert!(!b.contains(4));
        assert!(!b.contains(99_999));
    }

    #[test]
    fn bitset_union() {
        let mut a = ChunkedBitset::default();
        let mut b = ChunkedBitset::default();
        for i in [1u32, 5, 600] {
            a.insert(i);
        }
        for i in [5u32, 6, 2000] {
            b.insert(i);
        }
        a.union_with(&b);
        let got: Vec<u32> = (0..2500).filter(|&i| a.contains(i)).collect();
        assert_eq!(got, vec![1, 5, 6, 600, 2000]);
        assert_eq!(a.count_ones(), 5);
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
        let mut u = a;
        kernel::union_into(&mut u, &b);
        assert_eq!(kernel::count_ones(&u), 13);
        assert_eq!(u[0], 0b1111);
    }

    #[test]
    fn chunk_accessors_cover_iteration() {
        let mut a = ChunkedBitset::default();
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
        assert_eq!(per_chunk, 4);
    }

    /// Deterministic model test: a cheap LCG drives interleaved
    /// insert/contains/union against a `BTreeSet` model.
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
        let mut b = ChunkedBitset::default();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        let mut other = ChunkedBitset::default();
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
                        b = ChunkedBitset::default();
                        model.clear();
                    } else {
                        b.union_with(&other);
                        model.extend(other_model.iter().copied());
                    }
                }
            }
            assert_eq!(b.count_ones(), model.len(), "count after step {step}");
            assert_eq!(
                b.is_empty(),
                model.is_empty(),
                "emptiness after step {step}"
            );
        }
        let got: Vec<u32> = (0..5000).filter(|&i| b.contains(i)).collect();
        let want: Vec<u32> = model.into_iter().collect();
        assert_eq!(got, want);
    }
}
