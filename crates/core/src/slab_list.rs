//! Slab-intrusive doubly-linked lists.
//!
//! The v3 kernel threads its per-segment age lists and per-chain
//! follower lists through `u32` prev/next fields held in parallel arrays
//! beside the entry slab, gem5-style (SNIPPETS.md snippets 1 and 3): a
//! node is named by its array index, so attaching, detaching and
//! promoting an entry are O(1) pointer splices with zero node
//! allocation. The link storage is owned by the caller — one `Vec<Link>`
//! can back many lists as long as each node is on at most one of them at
//! a time.
//!
//! [`WaiterLists`] is the producer-keyed instance every queue and the
//! pipeline's parked stores share: the producer→consumer index that
//! tag-broadcast wakeup searches, kept apart from the ready structures.

use crate::tag::InstTag;
use crate::tagmap::TagMap;

/// Null link/index sentinel.
pub const NIL: u32 = u32::MAX;

/// Intrusive prev/next pair for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Previous node id, or [`NIL`].
    pub prev: u32,
    /// Next node id, or [`NIL`].
    pub next: u32,
}

impl Default for Link {
    fn default() -> Self {
        Link { prev: NIL, next: NIL }
    }
}

/// Head/tail handle of one list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListHead {
    /// First node id, or [`NIL`].
    pub head: u32,
    /// Last node id, or [`NIL`].
    pub tail: u32,
}

impl Default for ListHead {
    fn default() -> Self {
        ListHead::EMPTY
    }
}

impl ListHead {
    /// The empty list.
    pub const EMPTY: ListHead = ListHead { head: NIL, tail: NIL };

    /// Whether the list holds no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

/// Appends `id` at the tail.
#[inline]
pub fn push_back(h: &mut ListHead, links: &mut [Link], id: u32) {
    links[id as usize] = Link { prev: h.tail, next: NIL };
    if h.tail == NIL {
        h.head = id;
    } else {
        links[h.tail as usize].next = id;
    }
    h.tail = id;
}

/// Inserts `id` immediately after `after`; `after == NIL` inserts at the
/// front.
#[inline]
pub fn insert_after(h: &mut ListHead, links: &mut [Link], after: u32, id: u32) {
    let next = if after == NIL { h.head } else { links[after as usize].next };
    links[id as usize] = Link { prev: after, next };
    if after == NIL {
        h.head = id;
    } else {
        links[after as usize].next = id;
    }
    if next == NIL {
        h.tail = id;
    } else {
        links[next as usize].prev = id;
    }
}

/// Unsplices `id` from the list it is on.
#[inline]
pub fn remove(h: &mut ListHead, links: &mut [Link], id: u32) {
    let Link { prev, next } = links[id as usize];
    if prev == NIL {
        h.head = next;
    } else {
        links[prev as usize].next = next;
    }
    if next == NIL {
        h.tail = prev;
    } else {
        links[next as usize].prev = prev;
    }
    links[id as usize] = Link::default();
}

/// Per-producer waiter lists: for each producer tag, the nodes waiting
/// on it in subscription order. Nodes are numbered by the caller (the
/// queues use `2 * slot + k` for slot `slot`'s operand `k`); a node is
/// on at most one list at a time, and a producer whose list empties is
/// forgotten.
#[derive(Debug, Clone, Default)]
pub struct WaiterLists {
    heads: TagMap<ListHead>,
    links: Vec<Link>,
}

impl WaiterLists {
    /// Makes nodes `0..n` usable. Never shrinks.
    pub fn grow(&mut self, n: usize) {
        if self.links.len() < n {
            self.links.resize(n, Link::default());
        }
    }

    /// Forgets every list and every node.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.links.clear();
    }

    /// Appends `node`, which must be on no list, to `producer`'s list.
    #[inline]
    pub fn push(&mut self, producer: InstTag, node: u32) {
        let mut head = self.heads.get(producer.0).unwrap_or(ListHead::EMPTY);
        push_back(&mut head, &mut self.links, node);
        self.heads.insert(producer.0, head);
    }

    /// Unlinks `node` from `producer`'s list, which must hold it; a
    /// producer without a list is left alone.
    #[inline]
    pub fn remove(&mut self, producer: InstTag, node: u32) {
        let Some(head) = self.heads.get_mut(producer.0) else { return };
        remove(head, &mut self.links, node);
        if head.is_empty() {
            self.heads.remove(producer.0);
        }
    }

    /// The first node waiting on `producer`. With [`WaiterLists::next`]
    /// this is a cursor that holds no borrow between steps, so a walk may
    /// mutate the entries it visits.
    #[inline]
    #[must_use]
    pub fn first(&self, producer: InstTag) -> Option<u32> {
        self.heads.get(producer.0).map(|h| h.head)
    }

    /// The node after `node` on its list.
    #[inline]
    #[must_use]
    pub fn next(&self, node: u32) -> Option<u32> {
        let next = self.links[node as usize].next;
        (next != NIL).then_some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainiq_devtest::{prop_assert_eq, prop_check};
    use std::collections::BTreeMap;

    fn collect(h: ListHead, links: &[Link]) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cur = h.head;
        while cur != NIL {
            out.push(cur);
            cur = links[cur as usize].next;
        }
        out
    }

    fn collect_rev(h: ListHead, links: &[Link]) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cur = h.tail;
        while cur != NIL {
            out.push(cur);
            cur = links[cur as usize].prev;
        }
        out.reverse();
        out
    }

    #[test]
    fn push_insert_remove_basics() {
        let mut links = vec![Link::default(); 8];
        let mut h = ListHead::EMPTY;
        push_back(&mut h, &mut links, 3);
        push_back(&mut h, &mut links, 5);
        insert_after(&mut h, &mut links, NIL, 1); // front
        insert_after(&mut h, &mut links, 3, 4); // middle
        assert_eq!(collect(h, &links), vec![1, 3, 4, 5]);
        assert_eq!(collect_rev(h, &links), vec![1, 3, 4, 5]);
        remove(&mut h, &mut links, 1); // head
        remove(&mut h, &mut links, 5); // tail
        assert_eq!(collect(h, &links), vec![3, 4]);
        remove(&mut h, &mut links, 3);
        remove(&mut h, &mut links, 4);
        assert!(h.is_empty());
        assert_eq!(h, ListHead::EMPTY);
    }

    prop_check! {
        /// Random splice/unsplice traffic with node-slot reuse agrees
        /// with a reference `Vec<u32>` model, forwards and backwards —
        /// the recovery/slot-reuse shape the kernel leans on.
        fn matches_vec_model(g, cases = 64) {
            let slots = g.usize(1..32);
            let mut links = vec![Link::default(); slots];
            let mut h = ListHead::EMPTY;
            let mut model: Vec<u32> = Vec::new();
            for _ in 0..300 {
                let id = g.usize(0..slots) as u32;
                let on_list = model.contains(&id);
                if on_list {
                    // Unsplice; the slot is immediately reusable.
                    remove(&mut h, &mut links, id);
                    model.retain(|&x| x != id);
                } else if model.is_empty() || g.bool() {
                    push_back(&mut h, &mut links, id);
                    model.push(id);
                } else {
                    // Splice after a random resident (or at the front).
                    let pos = g.usize(0..model.len() + 1);
                    let after = if pos == 0 { NIL } else { model[pos - 1] };
                    insert_after(&mut h, &mut links, after, id);
                    model.insert(pos, id);
                }
                prop_assert_eq!(collect(h, &links), model.clone(), "forward walk");
                prop_assert_eq!(collect_rev(h, &links), model.clone(), "backward walk");
            }
        }

        /// Random push/remove/clear traffic over a few producers agrees
        /// with a `BTreeMap<u64, Vec<u32>>` model: every producer's
        /// cursor walk yields its nodes in push order, and an emptied or
        /// never-used producer has no first node.
        fn waiter_lists_match_map_model(g, cases = 64) {
            let nodes = g.usize(1..24);
            let producers = g.u64(1..6);
            let mut w = WaiterLists::default();
            w.grow(nodes);
            let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            for _ in 0..300 {
                let node = g.usize(0..nodes) as u32;
                let owner = model.iter().find(|(_, l)| l.contains(&node)).map(|(&p, _)| p);
                if g.usize(0..100) == 0 {
                    w.clear();
                    w.grow(nodes);
                    model.clear();
                } else if let Some(p) = owner {
                    w.remove(InstTag(p), node);
                    let list = model.get_mut(&p).expect("owner has a list");
                    list.retain(|&n| n != node);
                    if list.is_empty() {
                        model.remove(&p);
                    }
                } else {
                    let p = g.u64(0..producers);
                    w.push(InstTag(p), node);
                    model.entry(p).or_default().push(node);
                }
                for p in 0..producers {
                    let mut walk = Vec::new();
                    let mut cur = w.first(InstTag(p));
                    while let Some(n) = cur {
                        walk.push(n);
                        cur = w.next(n);
                    }
                    prop_assert_eq!(walk, model.get(&p).cloned().unwrap_or_default(), "producer {p}");
                }
            }
        }
    }
}
