//! Partitions of the state space of an LTS.

use bb_lts::StateId;

/// Index of an equivalence class (block) within a [`Partition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Returns the index as a `usize` for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A partition of `{0, …, n-1}` into equivalence classes.
///
/// Produced by [`partition`](crate::partition); consumed by
/// [`quotient`](crate::quotient) and the verification pipelines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    block_of: Vec<BlockId>,
    num_blocks: usize,
}

impl Partition {
    /// Creates a partition from a dense block assignment.
    ///
    /// # Panics
    ///
    /// Panics if `block_of` references a block id `>= num_blocks`.
    pub fn new(block_of: Vec<BlockId>, num_blocks: usize) -> Self {
        debug_assert!(block_of.iter().all(|b| b.index() < num_blocks));
        Partition {
            block_of,
            num_blocks,
        }
    }

    /// The universal partition: all `n` states in a single block.
    pub fn universal(n: usize) -> Self {
        Partition {
            block_of: vec![BlockId(0); n],
            num_blocks: if n == 0 { 0 } else { 1 },
        }
    }

    /// The discrete partition: every state in its own block.
    pub fn discrete(n: usize) -> Self {
        Partition {
            block_of: (0..n as u32).map(BlockId).collect(),
            num_blocks: n,
        }
    }

    /// The block containing state `s`.
    #[inline]
    pub fn block_of(&self, s: StateId) -> BlockId {
        self.block_of[s.index()]
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Number of states partitioned.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.block_of.len()
    }

    /// Whether states `a` and `b` are equivalent.
    #[inline]
    pub fn same_block(&self, a: StateId, b: StateId) -> bool {
        self.block_of(a) == self.block_of(b)
    }

    /// Raw block assignment, indexed by state id.
    pub fn assignment(&self) -> &[BlockId] {
        &self.block_of
    }

    /// Groups states by block.
    pub fn blocks(&self) -> Vec<Vec<StateId>> {
        let mut groups: Vec<Vec<StateId>> = vec![Vec::new(); self.num_blocks];
        for (i, b) in self.block_of.iter().enumerate() {
            groups[b.index()].push(StateId(i as u32));
        }
        groups
    }

    /// Checks that `self` refines `coarser`: every block of `self` is
    /// contained in a block of `coarser`. Used in tests and debug assertions
    /// on the refinement loop.
    pub fn refines(&self, coarser: &Partition) -> bool {
        if self.num_states() != coarser.num_states() {
            return false;
        }
        // For each of our blocks, the coarser block must be constant.
        let mut coarse_image: Vec<Option<BlockId>> = vec![None; self.num_blocks];
        for (i, b) in self.block_of.iter().enumerate() {
            let c = coarser.block_of[i];
            match coarse_image[b.index()] {
                None => coarse_image[b.index()] = Some(c),
                Some(prev) if prev != c => return false,
                _ => {}
            }
        }
        true
    }
}

/// Builds a [`Partition`] from arbitrary (stable) block labels by renumbering
/// blocks in order of first occurrence in state order — the canonical id
/// scheme of every refinement round. Every label in
/// `0..num_blocks` must occur (blocks are never empty), so the canonical
/// partition has exactly `num_blocks` blocks.
pub(crate) fn canonical_from_labels(labels: &[u32], num_blocks: usize) -> Partition {
    let mut map = vec![u32::MAX; num_blocks];
    let mut next = 0u32;
    let block_of = labels
        .iter()
        .map(|&l| {
            if map[l as usize] == u32::MAX {
                map[l as usize] = next;
                next += 1;
            }
            BlockId(map[l as usize])
        })
        .collect();
    debug_assert_eq!(next as usize, num_blocks, "every block must be non-empty");
    Partition::new(block_of, num_blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_renumbering_is_first_occurrence() {
        let p = canonical_from_labels(&[2, 0, 2, 1], 3);
        assert_eq!(
            p.assignment(),
            &[BlockId(0), BlockId(1), BlockId(0), BlockId(2)]
        );
        assert_eq!(p.num_blocks(), 3);
        let empty = canonical_from_labels(&[], 0);
        assert_eq!(empty.num_states(), 0);
    }

    #[test]
    fn universal_and_discrete() {
        let u = Partition::universal(4);
        assert_eq!(u.num_blocks(), 1);
        assert!(u.same_block(StateId(0), StateId(3)));
        let d = Partition::discrete(4);
        assert_eq!(d.num_blocks(), 4);
        assert!(!d.same_block(StateId(0), StateId(3)));
    }

    #[test]
    fn refinement_relation() {
        let coarse = Partition::new(vec![BlockId(0), BlockId(0), BlockId(1)], 2);
        let fine = Partition::new(vec![BlockId(0), BlockId(1), BlockId(2)], 3);
        assert!(fine.refines(&coarse));
        assert!(!coarse.refines(&fine));
        assert!(coarse.refines(&coarse));
    }

    #[test]
    fn refinement_rejects_cross_cutting() {
        let a = Partition::new(vec![BlockId(0), BlockId(0), BlockId(1)], 2);
        let b = Partition::new(vec![BlockId(0), BlockId(1), BlockId(1)], 2);
        assert!(!a.refines(&b));
        assert!(!b.refines(&a));
    }

    #[test]
    fn blocks_grouping() {
        let p = Partition::new(vec![BlockId(1), BlockId(0), BlockId(1)], 2);
        let groups = p.blocks();
        assert_eq!(groups[0], vec![StateId(1)]);
        assert_eq!(groups[1], vec![StateId(0), StateId(2)]);
    }

    #[test]
    fn empty_partition() {
        let p = Partition::universal(0);
        assert_eq!(p.num_blocks(), 0);
        assert_eq!(p.num_states(), 0);
    }
}
