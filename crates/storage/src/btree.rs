//! A from-scratch B+-tree keyed by [`Datum`], used for nonclustered
//! indexes (`key -> RIDs`).
//!
//! Design notes:
//! * Leaf nodes hold `(key, Vec<Rid>)` entries; duplicates for a key
//!   accumulate in one entry (a nonclustered index posting list), kept
//!   in ascending RID order whatever order entries arrive and leave in.
//! * Internal nodes hold separator keys and child pointers; children are
//!   indices into a node arena (no `unsafe`, no `Rc` cycles).
//! * Order (max keys per node) is configurable; small orders are used in
//!   tests to force deep trees.
//! * Supports point lookup, inclusive/exclusive range scans in key
//!   order, insertion with node splits, and deletion (with relaxed
//!   underflow handling — nodes may become sparse but never invalid,
//!   which is the classic "lazy delete" used by several production
//!   engines). A tree whose keys fit one node folds back into a single
//!   leaf, the shape a fresh build of those keys has.
//!
//! RIDs returned by range scans arrive in *key order*, which is exactly
//! the access pattern of the paper's Index Seek plan (Fig 2, right):
//! pages are revisited non-contiguously, so the grouped-page-access
//! property does **not** hold and DPC monitoring needs probabilistic
//! counting.

use pf_common::{Datum, PageId, Rid};
use std::cmp::Ordering;
use std::ops::Bound;

/// Max keys per node (both leaf and internal) unless overridden.
pub const DEFAULT_ORDER: usize = 64;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        keys: Vec<Datum>,
        postings: Vec<Vec<Rid>>,
        /// Arena index of the next leaf (leaf chaining for range scans).
        next: Option<usize>,
    },
    Internal {
        /// `keys[i]` separates `children[i]` (< key) from `children[i+1]` (≥ key).
        keys: Vec<Datum>,
        children: Vec<usize>,
    },
}

/// B+-tree mapping `Datum` keys to posting lists of RIDs.
#[derive(Debug, Clone)]
pub struct BPlusTree {
    arena: Vec<Node>,
    root: usize,
    order: usize,
    len: usize,
    entry_count: usize,
}

fn dcmp(a: &Datum, b: &Datum) -> Ordering {
    a.cmp_same_type(b)
        .expect("B+-tree keys must share one data type")
}

impl BPlusTree {
    /// An empty tree with the default order.
    pub fn new() -> Self {
        Self::with_order(DEFAULT_ORDER)
    }

    /// An empty tree with max `order` keys per node (min 4).
    pub fn with_order(order: usize) -> Self {
        let order = order.max(4);
        BPlusTree {
            arena: vec![Node::Leaf {
                keys: Vec::new(),
                postings: Vec::new(),
                next: None,
            }],
            root: 0,
            order,
            len: 0,
            entry_count: 0,
        }
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.len
    }

    /// Number of `(key, rid)` entries (posting-list sizes summed).
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// Inserts a `(key, rid)` pair, at its place in the key's posting
    /// list (after any equal RID).
    pub fn insert(&mut self, key: Datum, rid: Rid) {
        if let Some((sep, right)) = self.insert_rec(self.root, key, rid) {
            // Root split: grow the tree by one level.
            let old_root = self.root;
            self.arena.push(Node::Internal {
                keys: vec![sep],
                children: vec![old_root, right],
            });
            self.root = self.arena.len() - 1;
        }
    }

    fn insert_rec(&mut self, node: usize, key: Datum, rid: Rid) -> Option<(Datum, usize)> {
        match &mut self.arena[node] {
            Node::Leaf { keys, postings, .. } => match keys.binary_search_by(|k| dcmp(k, &key)) {
                Ok(i) => {
                    let posting = &mut postings[i];
                    let at = posting.partition_point(|r| *r <= rid);
                    posting.insert(at, rid);
                    self.entry_count += 1;
                    None
                }
                Err(i) => {
                    keys.insert(i, key);
                    postings.insert(i, vec![rid]);
                    self.len += 1;
                    self.entry_count += 1;
                    if keys.len() > self.order {
                        Some(self.split_leaf(node))
                    } else {
                        None
                    }
                }
            },
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|k| dcmp(k, &key) != Ordering::Greater);
                let child = children[idx];
                if let Some((sep, right)) = self.insert_rec(child, key, rid) {
                    let Node::Internal { keys, children } = &mut self.arena[node] else {
                        unreachable!("node kind cannot change mid-insert")
                    };
                    let pos = keys.partition_point(|k| dcmp(k, &sep) == Ordering::Less);
                    keys.insert(pos, sep);
                    children.insert(pos + 1, right);
                    if keys.len() > self.order {
                        return Some(self.split_internal(node));
                    }
                }
                None
            }
        }
    }

    fn split_leaf(&mut self, node: usize) -> (Datum, usize) {
        let new_index = self.arena.len();
        let Node::Leaf {
            keys,
            postings,
            next,
        } = &mut self.arena[node]
        else {
            unreachable!("split_leaf on non-leaf")
        };
        let mid = keys.len() / 2;
        let right_keys = keys.split_off(mid);
        let right_postings = postings.split_off(mid);
        let sep = right_keys[0].clone();
        let right_next = *next;
        *next = Some(new_index);
        self.arena.push(Node::Leaf {
            keys: right_keys,
            postings: right_postings,
            next: right_next,
        });
        (sep, new_index)
    }

    fn split_internal(&mut self, node: usize) -> (Datum, usize) {
        let new_index = self.arena.len();
        let Node::Internal { keys, children } = &mut self.arena[node] else {
            unreachable!("split_internal on non-internal")
        };
        let mid = keys.len() / 2;
        // keys[mid] moves up as the separator.
        let right_keys = keys.split_off(mid + 1);
        let sep = keys
            .pop()
            .expect("internal node splitting must have a middle key");
        let right_children = children.split_off(mid + 1);
        self.arena.push(Node::Internal {
            keys: right_keys,
            children: right_children,
        });
        (sep, new_index)
    }

    /// RIDs for an exact key, if present.
    pub fn get(&self, key: &Datum) -> Option<&[Rid]> {
        let mut node = self.root;
        loop {
            match &self.arena[node] {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| dcmp(k, key) != Ordering::Greater);
                    node = children[idx];
                }
                Node::Leaf { keys, postings, .. } => {
                    return keys
                        .binary_search_by(|k| dcmp(k, key))
                        .ok()
                        .map(|i| postings[i].as_slice());
                }
            }
        }
    }

    /// Removes one `(key, rid)` pair; returns whether it existed. When a
    /// posting list empties, the key is removed from its leaf (lazy
    /// underflow: nodes are allowed to become sparse), and a tree left
    /// with no more keys than one node holds collapses to a root leaf.
    pub fn remove(&mut self, key: &Datum, rid: Rid) -> bool {
        let mut node = self.root;
        loop {
            match &mut self.arena[node] {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| dcmp(k, key) != Ordering::Greater);
                    node = children[idx];
                }
                Node::Leaf { keys, postings, .. } => {
                    let Ok(i) = keys.binary_search_by(|k| dcmp(k, key)) else {
                        return false;
                    };
                    let Ok(pos) = postings[i].binary_search(&rid) else {
                        return false;
                    };
                    postings[i].remove(pos);
                    self.entry_count -= 1;
                    if postings[i].is_empty() {
                        postings.remove(i);
                        keys.remove(i);
                        self.len -= 1;
                        if node != self.root && self.len <= self.order {
                            self.collapse();
                        }
                    }
                    return true;
                }
            }
        }
    }

    /// Moves every entry, in key order, into a single leaf that becomes
    /// the whole tree.
    fn collapse(&mut self) {
        let mut node = self.root;
        while let Node::Internal { children, .. } = &self.arena[node] {
            node = children[0];
        }
        let (mut all_keys, mut all_postings) = (Vec::new(), Vec::new());
        let mut leaf = Some(node);
        while let Some(n) = leaf {
            let Node::Leaf {
                keys,
                postings,
                next,
            } = &mut self.arena[n]
            else {
                unreachable!("leaf chain holds only leaves")
            };
            all_keys.append(keys);
            all_postings.append(postings);
            leaf = *next;
        }
        self.arena = vec![Node::Leaf {
            keys: all_keys,
            postings: all_postings,
            next: None,
        }];
        self.root = 0;
    }

    /// Rewrites the page of every RID through `map`, in one pass over
    /// the leaves. `map` must be monotone, so that every posting list
    /// stays in ascending RID order.
    pub fn remap_pages(&mut self, map: impl Fn(PageId) -> PageId) {
        for node in &mut self.arena {
            if let Node::Leaf { postings, .. } = node {
                for rid in postings.iter_mut().flatten() {
                    rid.page = map(rid.page);
                }
            }
        }
    }

    /// Iterates `(key, rids)` for keys within the given bounds, in key order.
    pub fn range<'a>(&'a self, lo: Bound<&'a Datum>, hi: Bound<&'a Datum>) -> RangeIter<'a> {
        // Descend to the leaf that may hold the lower bound.
        let mut node = self.root;
        loop {
            match &self.arena[node] {
                Node::Internal { keys, children } => {
                    let idx = match lo {
                        Bound::Unbounded => 0,
                        Bound::Included(k) | Bound::Excluded(k) => {
                            keys.partition_point(|s| dcmp(s, k) != Ordering::Greater)
                        }
                    };
                    node = children[idx];
                }
                Node::Leaf { keys, .. } => {
                    let start = match lo {
                        Bound::Unbounded => 0,
                        Bound::Included(k) => {
                            keys.partition_point(|s| dcmp(s, k) == Ordering::Less)
                        }
                        Bound::Excluded(k) => {
                            keys.partition_point(|s| dcmp(s, k) != Ordering::Greater)
                        }
                    };
                    return RangeIter {
                        tree: self,
                        leaf: node,
                        pos: start,
                        hi,
                        done: false,
                    };
                }
            }
        }
    }

    /// Iterates every `(key, rids)` in key order.
    pub fn iter(&self) -> RangeIter<'_> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Height of the tree (1 = just a root leaf).
    pub fn height(&self) -> u32 {
        let mut h = 1;
        let mut node = self.root;
        loop {
            match &self.arena[node] {
                Node::Internal { children, .. } => {
                    h += 1;
                    node = children[0];
                }
                Node::Leaf { .. } => return h,
            }
        }
    }

    /// Verifies structural invariants; used by tests. Returns the list of
    /// violations (empty = healthy).
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();
        // All keys in order when walking leaves.
        let mut prev: Option<Datum> = None;
        for (k, _) in self.iter() {
            if let Some(p) = &prev {
                if dcmp(p, k) != Ordering::Less {
                    problems.push(format!("leaf keys out of order: {p} !< {k}"));
                }
            }
            prev = Some(k.clone());
        }
        // Key/posting/children arity per node.
        for (i, node) in self.arena.iter().enumerate() {
            match node {
                Node::Leaf { keys, postings, .. } => {
                    if keys.len() != postings.len() {
                        problems.push(format!(
                            "leaf {i}: {} keys, {} postings",
                            keys.len(),
                            postings.len()
                        ));
                    }
                    if postings.iter().any(Vec::is_empty) {
                        problems.push(format!("leaf {i}: empty posting list"));
                    }
                    if postings.iter().any(|p| p.windows(2).any(|w| w[0] > w[1])) {
                        problems.push(format!("leaf {i}: posting list out of RID order"));
                    }
                }
                Node::Internal { keys, children } => {
                    if children.len() != keys.len() + 1 {
                        problems.push(format!(
                            "internal {i}: {} keys, {} children",
                            keys.len(),
                            children.len()
                        ));
                    }
                }
            }
        }
        problems
    }
}

impl Default for BPlusTree {
    fn default() -> Self {
        Self::new()
    }
}

/// Key-ordered iterator over `(key, rids)` produced by [`BPlusTree::range`].
pub struct RangeIter<'a> {
    tree: &'a BPlusTree,
    leaf: usize,
    pos: usize,
    hi: Bound<&'a Datum>,
    done: bool,
}

impl<'a> Iterator for RangeIter<'a> {
    type Item = (&'a Datum, &'a [Rid]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let Node::Leaf {
                keys,
                postings,
                next,
            } = &self.tree.arena[self.leaf]
            else {
                unreachable!("range iterator must sit on a leaf")
            };
            if self.pos < keys.len() {
                let key = &keys[self.pos];
                let within = match self.hi {
                    Bound::Unbounded => true,
                    Bound::Included(h) => dcmp(key, h) != Ordering::Greater,
                    Bound::Excluded(h) => dcmp(key, h) == Ordering::Less,
                };
                if !within {
                    self.done = true;
                    return None;
                }
                let rids = postings[self.pos].as_slice();
                self.pos += 1;
                return Some((key, rids));
            }
            match next {
                Some(n) => {
                    self.leaf = *n;
                    self.pos = 0;
                }
                None => {
                    self.done = true;
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u32) -> Rid {
        Rid::new(n / 10, (n % 10) as u16)
    }

    #[test]
    fn insert_and_get() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..100 {
            t.insert(Datum::Int(i), rid(i as u32));
        }
        assert_eq!(t.key_count(), 100);
        assert_eq!(t.entry_count(), 100);
        for i in 0..100 {
            assert_eq!(t.get(&Datum::Int(i)).unwrap(), &[rid(i as u32)]);
        }
        assert!(t.get(&Datum::Int(100)).is_none());
        assert!(t.height() > 1, "order-4 tree of 100 keys must split");
        assert!(t.check_invariants().is_empty());
    }

    #[test]
    fn duplicate_keys_accumulate_postings() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..30 {
            t.insert(Datum::Int(i % 3), rid(i as u32));
        }
        assert_eq!(t.key_count(), 3);
        assert_eq!(t.entry_count(), 30);
        assert_eq!(t.get(&Datum::Int(0)).unwrap().len(), 10);
    }

    #[test]
    fn range_scan_in_key_order() {
        let mut t = BPlusTree::with_order(4);
        let mut keys: Vec<i64> = (0..200).collect();
        // Insert in a scrambled order.
        let mut rng = pf_common::rng::Rng::new(9);
        rng.shuffle(&mut keys);
        for (n, k) in keys.iter().enumerate() {
            t.insert(Datum::Int(*k), rid(n as u32));
        }
        let got: Vec<i64> = t
            .range(
                Bound::Included(&Datum::Int(50)),
                Bound::Excluded(&Datum::Int(60)),
            )
            .map(|(k, _)| k.as_int().unwrap())
            .collect();
        assert_eq!(got, (50..60).collect::<Vec<_>>());
    }

    #[test]
    fn range_bound_combinations() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..20 {
            t.insert(Datum::Int(i), rid(i as u32));
        }
        let count = |lo: Bound<&Datum>, hi: Bound<&Datum>| t.range(lo, hi).count();
        let five = Datum::Int(5);
        let ten = Datum::Int(10);
        assert_eq!(count(Bound::Unbounded, Bound::Unbounded), 20);
        assert_eq!(count(Bound::Included(&five), Bound::Included(&ten)), 6);
        assert_eq!(count(Bound::Excluded(&five), Bound::Included(&ten)), 5);
        assert_eq!(count(Bound::Included(&five), Bound::Excluded(&ten)), 5);
        assert_eq!(count(Bound::Excluded(&five), Bound::Excluded(&ten)), 4);
    }

    #[test]
    fn remove_entries_and_keys() {
        let mut t = BPlusTree::with_order(4);
        t.insert(Datum::Int(1), rid(1));
        t.insert(Datum::Int(1), rid(2));
        t.insert(Datum::Int(2), rid(3));
        assert!(t.remove(&Datum::Int(1), rid(1)));
        assert_eq!(t.get(&Datum::Int(1)).unwrap(), &[rid(2)]);
        assert!(t.remove(&Datum::Int(1), rid(2)));
        assert!(t.get(&Datum::Int(1)).is_none());
        assert_eq!(t.key_count(), 1);
        assert!(!t.remove(&Datum::Int(1), rid(2)), "double remove");
        assert!(!t.remove(&Datum::Int(9), rid(9)), "absent key");
        assert!(t.check_invariants().is_empty());
    }

    #[test]
    fn string_keys() {
        let mut t = BPlusTree::with_order(4);
        for (i, s) in ["wa", "ca", "tx", "ny", "or"].iter().enumerate() {
            t.insert(Datum::Str((*s).into()), rid(i as u32));
        }
        let states: Vec<String> = t
            .iter()
            .map(|(k, _)| k.as_str().unwrap().to_string())
            .collect();
        assert_eq!(states, ["ca", "ny", "or", "tx", "wa"]);
    }

    #[test]
    fn deep_tree_stays_consistent() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..5_000 {
            t.insert(Datum::Int((i * 2654435761) % 10_000), rid(i as u32));
        }
        assert!(t.height() >= 4);
        assert!(t.check_invariants().is_empty());
        // Every inserted key is findable.
        for i in 0..5_000i64 {
            let k = (i * 2654435761) % 10_000;
            assert!(t.get(&Datum::Int(k)).is_some(), "lost key {k}");
        }
    }

    #[test]
    fn postings_stay_in_rid_order() {
        let mut t = BPlusTree::with_order(4);
        for n in [7, 3, 9, 3, 0, 5] {
            t.insert(Datum::Int(1), rid(n));
        }
        assert_eq!(
            t.get(&Datum::Int(1)).unwrap(),
            &[rid(0), rid(3), rid(3), rid(5), rid(7), rid(9)]
        );
        assert!(t.remove(&Datum::Int(1), rid(3)));
        assert!(t.remove(&Datum::Int(1), rid(0)));
        assert_eq!(
            t.get(&Datum::Int(1)).unwrap(),
            &[rid(3), rid(5), rid(7), rid(9)]
        );
        assert!(t.check_invariants().is_empty());
    }

    #[test]
    fn remap_pages_rewrites_every_rid() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..100u32 {
            t.insert(Datum::Int(i64::from(i % 7)), rid(i));
        }
        let before: Vec<Vec<Rid>> = t.iter().map(|(_, r)| r.to_vec()).collect();
        // Pages 3.. shift up by two, as after a split below them.
        t.remap_pages(|p| if p.0 >= 3 { PageId(p.0 + 2) } else { p });
        let shift = |r: &Rid| {
            if r.page.0 >= 3 {
                Rid::new(r.page.0 + 2, r.slot.0)
            } else {
                *r
            }
        };
        let after: Vec<Vec<Rid>> = t.iter().map(|(_, r)| r.to_vec()).collect();
        let expect: Vec<Vec<Rid>> = before
            .iter()
            .map(|rs| rs.iter().map(shift).collect())
            .collect();
        assert_eq!(after, expect);
        assert!(t.check_invariants().is_empty());
    }

    #[test]
    fn shrinking_to_one_node_collapses_to_a_leaf() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..40 {
            t.insert(Datum::Int(i), rid(i as u32));
        }
        assert!(t.height() > 2);
        for i in 4..40 {
            assert!(t.remove(&Datum::Int(i), rid(i as u32)));
        }
        assert_eq!(t.height(), 1, "four keys fit one leaf");
        assert_eq!(t.key_count(), 4);
        let keys: Vec<i64> = t.iter().map(|(k, _)| k.as_int().unwrap()).collect();
        assert_eq!(keys, [0, 1, 2, 3]);
        assert!(t.check_invariants().is_empty());
        // The collapsed tree grows again like a fresh one.
        for i in 40..60 {
            t.insert(Datum::Int(i), rid(i as u32));
        }
        assert_eq!(t.key_count(), 24);
        assert!(t.check_invariants().is_empty());
    }

    #[test]
    fn clones_are_independent() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..50 {
            t.insert(Datum::Int(i), rid(i as u32));
        }
        let snapshot = t.clone();
        assert!(t.remove(&Datum::Int(10), rid(10)));
        t.insert(Datum::Int(99), rid(99));
        assert_eq!(snapshot.entry_count(), 50);
        assert_eq!(snapshot.get(&Datum::Int(10)).unwrap(), &[rid(10)]);
        assert!(snapshot.get(&Datum::Int(99)).is_none());
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = BPlusTree::new();
        assert_eq!(t.key_count(), 0);
        assert_eq!(t.iter().count(), 0);
        assert!(t.get(&Datum::Int(0)).is_none());
        assert_eq!(t.height(), 1);
    }
}
