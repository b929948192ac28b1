//! The buffer pool's O(1) LRU set of resident pages.
//!
//! Implemented as an intrusive doubly-linked list over a slab `Vec`
//! (indices instead of pointers — no `unsafe`) in recency order. A page
//! finds its slab slot through a per-table array indexed by page id:
//! page ids are dense (`0..page_count`), so residency is one
//! bounds-checked load instead of a hash probe. Supports `touch` (insert
//! or move-to-front) and eviction of the least-recently-used page when
//! full.

use pf_common::{PageId, TableId};

const NIL: u32 = u32::MAX;

/// A page of one table.
pub type PageKey = (TableId, PageId);

#[derive(Debug)]
struct Entry {
    key: PageKey,
    prev: u32,
    next: u32,
}

/// Fixed-capacity LRU set of `(table, page)` keys.
#[derive(Debug)]
pub struct PageLru {
    /// Per table touched, the slab slot of each of its pages, indexed by
    /// page id (`NIL` when not resident). Queries touch one or two
    /// tables, so finding a table's array is a short linear search.
    slots: Vec<(TableId, Vec<u32>)>,
    slab: Vec<Entry>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
    capacity: usize,
}

impl PageLru {
    /// Creates an LRU set holding at most `capacity` pages (min 1).
    ///
    /// Storage is allocated lazily as pages arrive: a large-capacity set
    /// that only ever sees a few pages (a 64 Ki-page buffer pool scanning
    /// a 500-page table) costs a few small allocations, not an eager
    /// `capacity`-sized slab. [`PageLru::clear`] keeps whatever grew, so
    /// a reused set stops allocating entirely.
    pub fn new(capacity: usize) -> Self {
        PageLru {
            slots: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            // Slab slots are `u32`s, `NIL` excluded.
            capacity: capacity.clamp(1, NIL as usize),
        }
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `key` is resident (does not affect recency).
    pub fn contains(&self, key: PageKey) -> bool {
        self.slot(key) != NIL
    }

    /// Marks `key` as most recently used, inserting it if absent.
    ///
    /// Returns `(was_hit, evicted)`: whether the page was already
    /// resident, and the page evicted to make room (if any).
    pub fn touch(&mut self, key: PageKey) -> (bool, Option<PageKey>) {
        let slot = self.slot(key);
        if slot != NIL {
            self.unlink(slot);
            self.push_front(slot);
            return (true, None);
        }
        let mut evicted = None;
        if self.len == self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "full LRU must have a tail");
            let old = self.slab[lru as usize].key;
            self.release(old, lru);
            evicted = Some(old);
        }
        let entry = Entry {
            key,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = entry;
                s
            }
            None => {
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
        };
        let pages = self.pages_mut(key.0);
        let page = key.1 .0 as usize;
        if pages.len() <= page {
            pages.resize(page + 1, NIL);
        }
        pages[page] = slot;
        self.len += 1;
        self.push_front(slot);
        (false, evicted)
    }

    /// Removes `key` if resident; returns whether it was present.
    pub fn remove(&mut self, key: PageKey) -> bool {
        let slot = self.slot(key);
        if slot == NIL {
            return false;
        }
        self.release(key, slot);
        true
    }

    /// Removes every page.
    pub fn clear(&mut self) {
        for (_, pages) in &mut self.slots {
            pages.clear();
        }
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }

    /// The slab slot of `key`, or `NIL` when it is not resident.
    fn slot(&self, (table, page): PageKey) -> u32 {
        self.slots
            .iter()
            .find(|(t, _)| *t == table)
            .and_then(|(_, pages)| pages.get(page.0 as usize).copied())
            .unwrap_or(NIL)
    }

    /// `table`'s page-to-slot array, created on the table's first page.
    fn pages_mut(&mut self, table: TableId) -> &mut Vec<u32> {
        let t = match self.slots.iter().position(|(t, _)| *t == table) {
            Some(t) => t,
            None => {
                self.slots.push((table, Vec::new()));
                self.slots.len() - 1
            }
        };
        &mut self.slots[t].1
    }

    /// Unlinks resident `key` from `slot` and frees the slot.
    fn release(&mut self, key: PageKey, slot: u32) {
        self.unlink(slot);
        self.pages_mut(key.0)[key.1 .0 as usize] = NIL;
        self.free.push(slot);
        self.len -= 1;
    }

    fn unlink(&mut self, slot: u32) {
        let s = slot as usize;
        let (prev, next) = (self.slab[s].prev, self.slab[s].next);
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slab[s].prev = NIL;
        self.slab[s].next = NIL;
    }

    fn push_front(&mut self, slot: u32) {
        let s = slot as usize;
        self.slab[s].prev = NIL;
        self.slab[s].next = self.head;
        if self.head != NIL {
            self.slab[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Page `p` of table 0.
    fn key(p: u32) -> PageKey {
        (TableId(0), PageId(p))
    }

    #[test]
    fn hit_and_miss() {
        let mut lru = PageLru::new(2);
        assert_eq!(lru.touch(key(1)), (false, None));
        assert_eq!(lru.touch(key(1)), (true, None));
        assert_eq!(lru.touch(key(2)), (false, None));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = PageLru::new(2);
        lru.touch(key(1));
        lru.touch(key(2));
        lru.touch(key(1)); // 2 is now LRU
        assert_eq!(lru.touch(key(3)), (false, Some(key(2))));
        assert!(lru.contains(key(1)));
        assert!(!lru.contains(key(2)));
        assert!(lru.contains(key(3)));
    }

    #[test]
    fn capacity_one() {
        let a = (TableId(3), PageId(0));
        let b = (TableId(4), PageId(0));
        let mut lru = PageLru::new(1);
        assert_eq!(lru.touch(a), (false, None));
        assert_eq!(lru.touch(b), (false, Some(a)));
        assert_eq!(lru.touch(b), (true, None));
    }

    #[test]
    fn remove_frees_a_slot() {
        let mut lru = PageLru::new(2);
        lru.touch(key(1));
        lru.touch(key(2));
        assert!(lru.remove(key(1)));
        assert!(!lru.remove(key(1)), "second removal is a no-op");
        assert!(!lru.contains(key(1)));
        // A page past any the table has seen is simply absent.
        assert!(!lru.remove(key(1_000)));
        // The freed slot is reusable without evicting.
        assert_eq!(lru.touch(key(3)), (false, None));
        assert_eq!(lru.len(), 2);
        // And the list is still well-formed under further traffic.
        assert_eq!(lru.touch(key(4)), (false, Some(key(2))));
        assert!(lru.contains(key(3)) && lru.contains(key(4)));
    }

    #[test]
    fn clear_resets() {
        let mut lru = PageLru::new(4);
        for i in 0..4 {
            lru.touch(key(i));
        }
        lru.clear();
        assert!(lru.is_empty());
        assert!(!lru.contains(key(0)));
        assert_eq!(lru.touch(key(0)), (false, None));
    }

    #[test]
    fn long_sequence_matches_reference_model() {
        // Compare against a naive Vec-based LRU model, over keys of
        // three tables whose page ids overlap.
        let mut lru = PageLru::new(8);
        let mut model: Vec<PageKey> = Vec::new(); // front = most recent
        let mut rng = pf_common::rng::Rng::new(42);
        for _ in 0..10_000 {
            let k = rng.gen_range(32) as u32;
            let key = (TableId(k % 3), PageId(k / 3));
            let (hit, evicted) = lru.touch(key);
            let model_hit = model.contains(&key);
            assert_eq!(hit, model_hit);
            model.retain(|&m| m != key);
            model.insert(0, key);
            let model_evicted = if model.len() > 8 { model.pop() } else { None };
            assert_eq!(evicted, model_evicted);
            assert_eq!(lru.len(), model.len());
        }
    }
}
