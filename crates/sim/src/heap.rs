//! Canonical abstract heap.

use crate::ptr::Ptr;
use std::hash::Hash;

/// A node type storable in a [`Heap`]: it must expose its outgoing pointers
/// so that garbage collection and canonical renaming can traverse and
/// rewrite them.
pub trait HeapNode: Clone + Eq + Hash + std::fmt::Debug {
    /// Appends the node's outgoing pointers to `out`.
    fn collect_refs(&self, out: &mut Vec<Ptr>);
    /// Rewrites each outgoing pointer in place.
    fn map_refs(&mut self, f: &mut dyn FnMut(Ptr) -> Ptr);
}

/// An arena of abstract nodes with canonical renaming.
///
/// After [`Heap::canonicalize`], live nodes occupy a dense prefix of the
/// arena in root-traversal order, so two isomorphic heaps compare equal —
/// the symmetry reduction described in the crate docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Heap<N: HeapNode> {
    nodes: Vec<Option<N>>,
}

impl<N: HeapNode> Default for Heap<N> {
    fn default() -> Self {
        Heap { nodes: Vec::new() }
    }
}

impl<N: HeapNode + crate::Pack> crate::Pack for Heap<N> {
    // Canonicalized heaps are a dense prefix of live nodes, but the arena
    // representation is encoded faithfully (free slots as `None`) so the
    // round-trip holds for every heap, canonical or not.
    fn pack(&self, w: &mut crate::PackWriter<'_>) {
        self.nodes.pack(w);
    }
    fn unpack(r: &mut crate::PackReader<'_>) -> Option<Self> {
        Some(Heap {
            nodes: crate::Pack::unpack(r)?,
        })
    }
}

/// The renaming produced by [`Heap::canonicalize`]; apply it to every
/// pointer stored outside the heap (shared variables, thread frames).
#[derive(Debug, Clone)]
pub struct Renaming {
    map: Vec<Ptr>,
}

impl Renaming {
    /// Rewrites a pointer: live nodes get their canonical name, reclaimed or
    /// unreachable targets become [`Ptr::DANGLING`], sentinels are kept.
    pub fn apply(&self, p: Ptr) -> Ptr {
        if !p.is_node() {
            return p;
        }
        self.map.get(p.0 as usize).copied().unwrap_or(Ptr::DANGLING)
    }
}

impl<N: HeapNode> Heap<N> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh node, returning its pointer.
    pub fn alloc(&mut self, node: N) -> Ptr {
        // Reuse a free slot if any (identity is canonicalized away anyway).
        if let Some(i) = self.nodes.iter().position(Option::is_none) {
            self.nodes[i] = Some(node);
            return Ptr(i as u32);
        }
        let i = self.nodes.len();
        self.nodes.push(Some(node));
        Ptr(i as u32)
    }

    /// Explicitly reclaims a node (hazard-pointer style `free`). Pointers to
    /// it become dangling at the next canonicalization.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a live node.
    pub fn free(&mut self, p: Ptr) {
        let slot = &mut self.nodes[p.index()];
        assert!(slot.is_some(), "double free of {p:?}");
        *slot = None;
    }

    /// Shared read access; `None` for freed/dangling/null pointers.
    pub fn get(&self, p: Ptr) -> Option<&N> {
        if !p.is_node() {
            return None;
        }
        self.nodes.get(p.0 as usize).and_then(Option::as_ref)
    }

    /// Mutable access; `None` for freed/dangling/null pointers.
    pub fn get_mut(&mut self, p: Ptr) -> Option<&mut N> {
        if !p.is_node() {
            return None;
        }
        self.nodes.get_mut(p.0 as usize).and_then(Option::as_mut)
    }

    /// Dereferences a pointer that the caller knows is live.
    ///
    /// # Panics
    ///
    /// Panics on null, dangling or freed pointers — in a verified model such
    /// a dereference is a modeling error, not a runtime condition.
    pub fn node(&self, p: Ptr) -> &N {
        self.get(p).unwrap_or_else(|| panic!("dereferenced dead pointer {p:?}"))
    }

    /// Mutable variant of [`Heap::node`].
    ///
    /// # Panics
    ///
    /// Panics on null, dangling or freed pointers.
    pub fn node_mut(&mut self, p: Ptr) -> &mut N {
        self.get_mut(p)
            .unwrap_or_else(|| panic!("dereferenced dead pointer {p:?}"))
    }

    /// Is `p` a live node of this heap?
    pub fn is_live(&self, p: Ptr) -> bool {
        self.get(p).is_some()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Whether the heap holds no live nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Garbage-collects and canonically renames the heap.
    ///
    /// Live nodes reachable from `roots` are renumbered densely in
    /// first-visit (root order, then BFS) order; everything else is
    /// dropped. Returns the [`Renaming`] to apply to all external pointers.
    ///
    /// ```
    /// use bb_sim::{Heap, HeapNode, Ptr};
    ///
    /// #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    /// struct Cell(i64, Ptr);
    /// impl HeapNode for Cell {
    ///     fn collect_refs(&self, out: &mut Vec<Ptr>) { out.push(self.1); }
    ///     fn map_refs(&mut self, f: &mut dyn FnMut(Ptr) -> Ptr) { self.1 = f(self.1); }
    /// }
    ///
    /// let mut h: Heap<Cell> = Heap::new();
    /// let garbage = h.alloc(Cell(9, Ptr::NULL));
    /// let a = h.alloc(Cell(1, Ptr::NULL));
    /// let ren = h.canonicalize(&[a]);
    /// assert_eq!(h.len(), 1);                  // garbage collected
    /// assert_eq!(ren.apply(a), Ptr(0));        // canonical name
    /// assert_eq!(ren.apply(garbage), Ptr::DANGLING);
    /// ```
    pub fn canonicalize(&mut self, roots: &[Ptr]) -> Renaming {
        let mut map: Vec<Ptr> = vec![Ptr::DANGLING; self.nodes.len()];
        let mut order: Vec<u32> = Vec::new(); // old indices in canonical order
        let mut queue = std::collections::VecDeque::new();

        let visit = |p: Ptr,
                         map: &mut Vec<Ptr>,
                         order: &mut Vec<u32>,
                         queue: &mut std::collections::VecDeque<u32>,
                         nodes: &[Option<N>]| {
            if !p.is_node() {
                return;
            }
            let Some(slot) = nodes.get(p.0 as usize) else {
                return;
            };
            if slot.is_none() || map[p.0 as usize] != Ptr::DANGLING {
                return;
            }
            map[p.0 as usize] = Ptr(order.len() as u32);
            order.push(p.0);
            queue.push_back(p.0);
        };

        for &r in roots {
            visit(r, &mut map, &mut order, &mut queue, &self.nodes);
        }
        let mut refs = Vec::new();
        while let Some(old) = queue.pop_front() {
            refs.clear();
            self.nodes[old as usize]
                .as_ref()
                .expect("queued nodes are live")
                .collect_refs(&mut refs);
            for &p in &refs {
                visit(p, &mut map, &mut order, &mut queue, &self.nodes);
            }
        }

        let renaming = Renaming { map };
        let mut new_nodes: Vec<Option<N>> = Vec::with_capacity(order.len());
        for &old in &order {
            let mut node = self.nodes[old as usize]
                .take()
                .expect("ordered nodes are live");
            node.map_refs(&mut |p| renaming.apply(p));
            new_nodes.push(Some(node));
        }
        self.nodes = new_nodes;
        renaming
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A singly linked node carrying a value.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Cell {
        val: i64,
        next: Ptr,
    }

    impl HeapNode for Cell {
        fn collect_refs(&self, out: &mut Vec<Ptr>) {
            out.push(self.next);
        }
        fn map_refs(&mut self, f: &mut dyn FnMut(Ptr) -> Ptr) {
            self.next = f(self.next);
        }
    }

    fn cell(val: i64, next: Ptr) -> Cell {
        Cell { val, next }
    }

    #[test]
    fn alloc_get_free() {
        let mut h: Heap<Cell> = Heap::new();
        let a = h.alloc(cell(1, Ptr::NULL));
        assert_eq!(h.node(a).val, 1);
        assert!(h.is_live(a));
        h.free(a);
        assert!(!h.is_live(a));
        assert!(h.get(a).is_none());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut h: Heap<Cell> = Heap::new();
        let a = h.alloc(cell(1, Ptr::NULL));
        h.free(a);
        h.free(a);
    }

    #[test]
    fn canonicalization_merges_isomorphic_heaps() {
        // Heap 1: allocate a then b, list b -> a.
        let mut h1: Heap<Cell> = Heap::new();
        let a1 = h1.alloc(cell(1, Ptr::NULL));
        let b1 = h1.alloc(cell(2, a1));
        let r1 = h1.canonicalize(&[b1]);

        // Heap 2: same list but allocated in opposite slot order.
        let mut h2: Heap<Cell> = Heap::new();
        let x = h2.alloc(cell(9, Ptr::NULL)); // garbage, freed below
        let a2 = h2.alloc(cell(1, Ptr::NULL));
        h2.free(x);
        let b2 = h2.alloc(cell(2, a2));
        let r2 = h2.canonicalize(&[b2]);

        assert_eq!(h1, h2);
        assert_eq!(r1.apply(b1), r2.apply(b2));
    }

    #[test]
    fn unreachable_nodes_are_collected() {
        let mut h: Heap<Cell> = Heap::new();
        let a = h.alloc(cell(1, Ptr::NULL));
        let _garbage = h.alloc(cell(2, Ptr::NULL));
        let _ = h.canonicalize(&[a]);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn dangling_pointers_are_canonical() {
        let mut h: Heap<Cell> = Heap::new();
        let a = h.alloc(cell(1, Ptr::NULL));
        let b = h.alloc(cell(2, Ptr::NULL));
        h.free(a);
        let ren = h.canonicalize(&[b, a]);
        assert_eq!(ren.apply(a), Ptr::DANGLING);
        assert_eq!(ren.apply(b), Ptr(0));
        assert_eq!(ren.apply(Ptr::NULL), Ptr::NULL);
    }

    #[test]
    fn cyclic_structures_survive() {
        let mut h: Heap<Cell> = Heap::new();
        let a = h.alloc(cell(1, Ptr::NULL));
        let b = h.alloc(cell(2, a));
        h.node_mut(a).next = b;
        let ren = h.canonicalize(&[a]);
        assert_eq!(h.len(), 2);
        let na = ren.apply(a);
        let nb = ren.apply(b);
        assert_eq!(h.node(na).next, nb);
        assert_eq!(h.node(nb).next, na);
    }

    #[test]
    fn root_order_determines_names() {
        let mut h: Heap<Cell> = Heap::new();
        let a = h.alloc(cell(1, Ptr::NULL));
        let b = h.alloc(cell(2, Ptr::NULL));
        let ren = h.canonicalize(&[b, a]);
        assert_eq!(ren.apply(b), Ptr(0));
        assert_eq!(ren.apply(a), Ptr(1));
    }
}
