//! The entry store all four issue queues share.
//!
//! Entries live in a slab whose slots are recycled LIFO, found through a
//! tag → slot [`TagMap`], and filed on their producers' [`WaiterLists`],
//! so an announcement walks only the entries waiting for it. An entry
//! whose issue cycle is known is filed for selection, by tag and slot:
//! on a calendar [`Wheel`] at that cycle, or, once the wheel is drained
//! past it, in a tag-ordered `ready` set that selection walks oldest
//! first.
//!
//! The slab is kept as columns: tags, op classes, data operands and
//! places each in an array of their own, so a queue walking its places
//! (the segmented queue's promotion state) does not drag the cold
//! columns through the cache. Slot numbers leave the store: `insert`
//! returns the slot, and a queue may keep slot-parallel arrays of its
//! own, growing them when a slot at their end is handed out. Images list
//! entries in tag order, so they name no slot.

use chainiq_ckpt::{CkptError, Pack, Reader, Writer};
use chainiq_isa::{Cycle, OpClass};

use crate::fu::FuPool;
use crate::queue::{IssuedInst, QuietCycle};
use crate::slab_list::WaiterLists;
use crate::tag::{DataOperands, InstTag};
use crate::tagmap::TagMap;
use crate::wheel::Wheel;

/// One queued instruction: what every queue keeps about it, and `place`,
/// where its queue holds it.
#[derive(Debug, Clone, Copy)]
pub struct Entry<P> {
    /// The instruction's tag (its age).
    pub tag: InstTag,
    /// Its op class, which picks a function unit at issue.
    pub op: OpClass,
    /// Its data readiness.
    pub ops: DataOperands,
    /// Where its queue holds it.
    pub place: P,
}

/// Where a queue holds an entry, which says when the store may select it.
pub trait Place: Copy {
    /// The first cycle the store may select an entry with operands `ops`,
    /// or `None` while that is unknown (always, for a queue that selects
    /// on its own).
    fn issue_at(&self, ops: &DataOperands) -> Option<Cycle>;
}

impl<P: Pack> Pack for Entry<P> {
    fn pack(&self, w: &mut Writer) {
        self.tag.pack(w);
        self.op.pack(w);
        self.ops.pack(w);
        self.place.pack(w);
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let (tag, op, ops) = (Pack::unpack(r)?, Pack::unpack(r)?, Pack::unpack(r)?);
        Ok(Entry { tag, op, ops, place: Pack::unpack(r)? })
    }
}

/// An entry as the store files it for selection: its tag (its age) and
/// its slot.
type Filed = (InstTag, u32);

/// The tag column's mark on a free slot; no instruction carries it.
const FREE: InstTag = InstTag(u64::MAX);

/// An entry an announcement woke, as [`Store::announce`] hands it over.
#[derive(Debug)]
pub struct Woken<'a, P> {
    /// The entry's tag.
    pub tag: InstTag,
    /// The slot holding it.
    pub slot: u32,
    /// The cycle its operands were ready from before the announcement.
    pub was: Option<Cycle>,
    /// The cycle they are ready from after it.
    pub is: Option<Cycle>,
    /// Where the queue holds it, which the queue may change.
    pub place: &'a mut P,
}

/// Every queued entry of one queue, addressed by tag or by slot.
#[derive(Debug, Clone)]
pub struct Store<P> {
    /// The slab's columns, indexed by slot. A free slot's tag is
    /// [`FREE`]; its other columns keep stale data until reused.
    tags: Vec<InstTag>,
    classes: Vec<OpClass>,
    operands: Vec<DataOperands>,
    places: Vec<P>,
    free: Vec<u32>,
    by_tag: TagMap<u32>,
    /// Node `2 * slot + k` per distinct producer of the entry in `slot`.
    waiters: WaiterLists,
    /// Entries whose issue cycle lies after `drained_to`, keyed by it. A
    /// refile cancels the old record, so `next_due` is exact.
    wheel: Wheel<Filed>,
    /// Entries issuable by `drained_to`, in ascending tag (age) order.
    ready: Vec<Filed>,
    drained_to: Cycle,
    /// The records one drain delivers (not serialized).
    scratch: Vec<Filed>,
}

impl<P: Place> Store<P> {
    /// An empty store sized for `capacity` entries, its wheel of
    /// `buckets` buckets.
    #[must_use]
    pub fn new(capacity: usize, buckets: usize) -> Self {
        Store {
            tags: Vec::with_capacity(capacity),
            classes: Vec::with_capacity(capacity),
            operands: Vec::with_capacity(capacity),
            places: Vec::with_capacity(capacity),
            free: Vec::new(),
            by_tag: TagMap::new(),
            waiters: WaiterLists::default(),
            wheel: Wheel::new(buckets),
            ready: Vec::new(),
            drained_to: 0,
            scratch: Vec::new(),
        }
    }

    /// Entries queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_tag.len()
    }

    /// Whether no entry is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot holding `tag`, if queued.
    #[must_use]
    pub fn slot_of(&self, tag: InstTag) -> Option<u32> {
        self.by_tag.get(tag.0)
    }

    /// The queued entry `tag`, if any.
    #[must_use]
    pub fn get(&self, tag: InstTag) -> Option<Entry<P>> {
        self.slot_of(tag).map(|s| self.entry(s))
    }

    fn entry(&self, slot: u32) -> Entry<P> {
        let s = slot as usize;
        Entry {
            tag: self.tags[s],
            op: self.classes[s],
            ops: self.operands[s],
            place: self.places[s],
        }
    }

    /// The tag column: `tags()[slot]` is the tag of the entry in `slot`,
    /// or a mark no instruction carries while the slot is free.
    #[must_use]
    pub(crate) fn tags(&self) -> &[InstTag] {
        &self.tags
    }

    /// Where the queue holds the entry in a live `slot`.
    #[must_use]
    pub(crate) fn place(&self, slot: u32) -> &P {
        &self.places[slot as usize]
    }

    /// The data operands of the entry in a live `slot`.
    #[must_use]
    pub fn operands(&self, slot: u32) -> &DataOperands {
        &self.operands[slot as usize]
    }

    /// Applies `change` to where the queue holds the entry in a live
    /// `slot`, refiles it, and returns what `change` returned.
    pub fn update<R>(&mut self, slot: u32, change: impl FnOnce(&mut P) -> R) -> R {
        let s = slot as usize;
        let (place, ops) = (&mut self.places[s], &self.operands[s]);
        let old = place.issue_at(ops);
        let out = change(place);
        let new = place.issue_at(ops);
        self.refile(slot, old, new);
        out
    }

    /// Queues `entry`, which the caller keeps unique by tag, and returns
    /// its slot: a recycled one, or else the next past the slab's end.
    pub fn insert(&mut self, entry: Entry<P>) -> u32 {
        let tag = entry.tag;
        debug_assert!(self.by_tag.get(tag.0).is_none(), "{tag} is already queued");
        let slot = if let Some(s) = self.free.pop() {
            let i = s as usize;
            self.tags[i] = tag;
            self.classes[i] = entry.op;
            self.operands[i] = entry.ops;
            self.places[i] = entry.place;
            s
        } else {
            self.tags.push(tag);
            self.classes.push(entry.op);
            self.operands.push(entry.ops);
            self.places.push(entry.place);
            self.waiters.grow(2 * self.tags.len());
            (self.tags.len() - 1) as u32
        };
        self.by_tag.insert(tag.0, slot);
        self.waiters.subscribe(slot, &entry.ops);
        self.refile(slot, None, entry.place.issue_at(&entry.ops));
        slot
    }

    /// Empties the store (flush), keeping the drain clock.
    pub fn clear(&mut self) {
        self.tags.clear();
        self.classes.clear();
        self.operands.clear();
        self.places.clear();
        self.free.clear();
        self.by_tag.clear();
        self.waiters.clear();
        self.wheel.reset(self.drained_to);
        self.ready.clear();
    }

    /// Delivers `producer`'s announcement, ready at `at`, to every entry
    /// waiting on it, hands each to `woken`, and then refiles it.
    pub fn announce(&mut self, producer: InstTag, at: Cycle, mut woken: impl FnMut(Woken<'_, P>)) {
        let mut cur = self.waiters.first(producer);
        while let Some(node) = cur {
            let slot = node / 2;
            let s = slot as usize;
            let (tag, place, ops) = (self.tags[s], &mut self.places[s], &mut self.operands[s]);
            let (old, was) = (place.issue_at(ops), ops.ready_from());
            let hit = ops.announce(producer, at);
            debug_assert!(hit, "waiter node on the wrong producer list");
            woken(Woken { tag, slot, was, is: ops.ready_from(), place });
            let new = place.issue_at(ops);
            self.refile(slot, old, new);
            cur = self.waiters.next(node);
        }
    }

    /// Moves the entry in `slot` from where issue cycle `old` filed it to
    /// where `new` files it. Most changes leave the cycle as it was, so
    /// it is inlined for that first test.
    #[inline]
    fn refile(&mut self, slot: u32, old: Option<Cycle>, new: Option<Cycle>) {
        let drained = |at: Option<Cycle>| at.is_some_and(|at| at <= self.drained_to);
        if old == new || (drained(old) && drained(new)) {
            return;
        }
        let filed = (self.tags[slot as usize], slot);
        match old {
            Some(_) if drained(old) => remove_sorted(&mut self.ready, filed),
            Some(o) => {
                let found = self.wheel.cancel(o, filed);
                debug_assert!(found, "a pending entry has its wheel record");
            }
            None => {}
        }
        match new {
            Some(_) if drained(new) => insert_sorted(&mut self.ready, filed),
            Some(n) => self.wheel.schedule(n, filed),
            None => {}
        }
    }

    /// Issues the entries issuable by `now`, oldest first, while `fus`
    /// has slots and a unit for each. Each leaves the store, appended to
    /// `out` and handed to `issued` with the slot it held.
    pub fn select(
        &mut self,
        now: Cycle,
        fus: &mut FuPool,
        out: &mut Vec<IssuedInst>,
        mut issued: impl FnMut(u32, Entry<P>),
    ) {
        if now > self.drained_to {
            let mut due = std::mem::take(&mut self.scratch);
            self.wheel.drain_into(now, &mut due);
            self.drained_to = now;
            for &filed in &due {
                insert_sorted(&mut self.ready, filed);
            }
            due.clear();
            self.scratch = due;
        }
        let before = out.len();
        for &(tag, slot) in &self.ready {
            if fus.slots_left() == 0 {
                break;
            }
            let op = self.classes[slot as usize];
            if fus.try_issue(now, op) {
                out.push(IssuedInst { tag, op });
            }
        }
        if out.len() == before {
            return;
        }
        // The issued tags are a subsequence of `ready`.
        let mut k = before;
        self.ready.retain(|&(t, _)| {
            let hit = out.get(k).is_some_and(|i| i.tag == t);
            k += usize::from(hit);
            !hit
        });
        for i in &out[before..] {
            let Some(slot) = self.by_tag.remove(i.tag.0) else { continue };
            let entry = self.entry(slot);
            self.waiters.unsubscribe(slot, &entry.ops);
            self.tags[slot as usize] = FREE;
            self.free.push(slot);
            issued(slot, entry);
        }
    }

    /// The first cycle after `quiet.now` at which a filed entry is
    /// issuable.
    #[must_use]
    pub fn next_event(&self, quiet: &QuietCycle) -> Cycle {
        if !self.ready.is_empty() {
            return quiet.now + 1;
        }
        self.wheel.next_due(Cycle::MAX).max(quiet.now + 1)
    }

    /// Writes the queued entries in tag order, laid out as a `Vec`.
    pub fn save(&self, w: &mut Writer)
    where
        P: Pack,
    {
        let order = self.by_tag.to_sorted_vec();
        w.put_u64(order.len() as u64);
        for (_, s) in order {
            self.entry(s).pack(w);
        }
    }

    /// Checks the `entries` an image of `queue` lists: at most `capacity`
    /// of them, in strictly ascending tag order, so no tag repeats.
    pub(crate) fn check_image(
        entries: &[Entry<P>],
        capacity: usize,
        queue: &str,
    ) -> Result<(), CkptError> {
        let corrupt =
            |what: &str| Err(CkptError::Corrupt { context: format!("{queue} IQ {what}") });
        if entries.len() > capacity {
            return corrupt("occupancy exceeds its capacity");
        }
        if entries.windows(2).any(|w| w[0].tag >= w[1].tag) {
            return corrupt("image repeats a tag or lists tags out of order");
        }
        Ok(())
    }

    /// Replaces every entry with the `entries` an image of `queue` lists:
    /// at most `capacity` of them, in strictly ascending tag order. Entry
    /// `i` takes slot `i`. The drain clock restarts at cycle 0, so the
    /// first selection catches every entry up.
    pub fn restore(
        &mut self,
        entries: &[Entry<P>],
        capacity: usize,
        queue: &str,
    ) -> Result<(), CkptError> {
        Self::check_image(entries, capacity, queue)?;
        self.drained_to = 0;
        self.clear();
        for &e in entries {
            self.insert(e);
        }
        Ok(())
    }
}

/// Inserts `x` into the ascending `v` unless it is there already.
pub fn insert_sorted<T: Ord>(v: &mut Vec<T>, x: T) {
    if let Err(pos) = v.binary_search(&x) {
        v.insert(pos, x);
    }
}

/// Removes `x` from the ascending `v` if it is there.
pub fn remove_sorted<T: Ord>(v: &mut Vec<T>, x: T) {
    if let Ok(pos) = v.binary_search(&x) {
        v.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A place that is its issue cycle.
    #[derive(Debug, Clone, Copy)]
    struct At(Option<Cycle>);

    impl Place for At {
        fn issue_at(&self, _: &DataOperands) -> Option<Cycle> {
            self.0
        }
    }

    fn entry(tag: u64, at: Option<Cycle>) -> Entry<At> {
        Entry {
            tag: InstTag(tag),
            op: OpClass::IntAlu,
            ops: DataOperands::default(),
            place: At(at),
        }
    }

    fn select(store: &mut Store<At>, now: Cycle) -> Vec<(u64, u32)> {
        let mut issued = Vec::new();
        store.select(now, &mut FuPool::table1(), &mut Vec::new(), |slot, e| {
            issued.push((e.tag.0, slot));
        });
        issued
    }

    #[test]
    fn selects_oldest_first_and_reuses_slots_lifo() {
        let mut store = Store::new(8, 4);
        let slots: Vec<u32> = [5, 3, 4].map(|t| store.insert(entry(t, Some(1)))).to_vec();
        assert_eq!(slots, [0, 1, 2]);
        assert_eq!(select(&mut store, 0), []);
        assert_eq!(select(&mut store, 1), [(3, 1), (4, 2), (5, 0)]);
        assert_eq!(store.tags()[1], FREE, "a free slot carries no tag");
        assert_eq!(store.insert(entry(9, None)), 0, "the last slot freed is reused first");
    }

    #[test]
    fn an_update_refiles_and_a_restore_takes_slots_in_tag_order() {
        let mut store = Store::new(8, 4);
        let slot = store.insert(entry(2, None));
        let quiet = QuietCycle { now: 0, execution_idle: true, refused: None };
        assert_eq!(store.next_event(&quiet), Cycle::MAX);
        store.update(slot, |at| at.0 = Some(7));
        assert_eq!(store.next_event(&quiet), 7);
        store.restore(&[entry(4, None), entry(6, Some(3))], 8, "test").unwrap();
        assert_eq!((store.slot_of(InstTag(4)), store.slot_of(InstTag(6))), (Some(0), Some(1)));
        assert_eq!(store.next_event(&quiet), 3);
        let swapped = [entry(6, None), entry(4, None)];
        assert!(store.restore(&swapped, 8, "test").is_err(), "tags out of order");
        assert!(store.restore(&[entry(1, None), entry(2, None)], 1, "test").is_err(), "too many");
    }
}
