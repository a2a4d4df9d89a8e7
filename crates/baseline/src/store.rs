//! The entry store the three baseline queues share, and the scheduling
//! array the prescheduled and distance queues share.
//!
//! Entries live in a slab whose slots are recycled LIFO, found through a
//! tag → slot [`TagMap`], and filed on their producers' [`WaiterLists`],
//! so an announcement walks only the entries waiting for it. An entry
//! whose issue cycle is known is filed for selection: on a calendar
//! [`Wheel`] at that cycle, or, once the wheel is drained past it, in a
//! tag-ordered `ready` set that selection walks oldest first. Slot
//! numbers never leave the store; images list entries in tag order.
//!
//! A scheduling array's rows are future issue cycles of `line_width`
//! slots, at most `num_lines` cycles ahead of an instruction's placement.

use chainiq_ckpt::{CkptError, Pack, Reader, Writer};
use chainiq_core::{
    DataOperands, FuPool, InstTag, IssuedInst, QuietCycle, TagMap, WaiterLists, Wheel,
};
use chainiq_isa::{Cycle, OpClass};

/// One queued instruction: what every baseline queue keeps about it, and
/// `place`, where its queue holds it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry<P> {
    pub(crate) tag: InstTag,
    pub(crate) op: OpClass,
    pub(crate) ops: DataOperands,
    pub(crate) place: P,
}

/// Where a queue holds an entry, which says when the store may select it.
pub(crate) trait Place: Copy {
    /// The first cycle the store may select an entry with operands `ops`,
    /// or `None` while that is unknown (always, for a queue that selects
    /// on its own).
    fn issue_at(&self, ops: &DataOperands) -> Option<Cycle>;
}

impl<P: Place> Entry<P> {
    fn issue_at(&self) -> Option<Cycle> {
        self.place.issue_at(&self.ops)
    }
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

/// Every queued entry of one queue, addressed by tag.
#[derive(Debug, Clone)]
pub(crate) struct Store<P> {
    /// Slab slots; a free slot keeps stale data until reused.
    slots: Vec<Entry<P>>,
    free: Vec<u32>,
    by_tag: TagMap<u32>,
    /// Node `2 * slot + k` per distinct producer of the entry in `slot`.
    waiters: WaiterLists,
    /// Entries whose issue cycle lies after `drained_to`, keyed by it. A
    /// refile cancels the old record, so `next_due` is exact.
    wheel: Wheel<InstTag>,
    /// Entries issuable by `drained_to`, in ascending tag (age) order.
    ready: Vec<InstTag>,
    drained_to: Cycle,
    /// The records one drain delivers (not serialized).
    scratch: Vec<InstTag>,
}

impl<P: Place> Store<P> {
    /// An empty store sized for `capacity` entries, its wheel of
    /// `buckets` buckets.
    pub(crate) fn new(capacity: usize, buckets: usize) -> Self {
        Store {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            by_tag: TagMap::new(),
            waiters: WaiterLists::default(),
            wheel: Wheel::new(buckets),
            ready: Vec::new(),
            drained_to: 0,
            scratch: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.by_tag.len()
    }

    pub(crate) fn get(&self, tag: InstTag) -> Option<&Entry<P>> {
        self.by_tag.get(tag.0).map(|s| &self.slots[s as usize])
    }

    /// Applies `change` to where the queue holds `tag`, and refiles it.
    pub(crate) fn update(&mut self, tag: InstTag, change: impl FnOnce(&mut P)) {
        let Some(slot) = self.by_tag.get(tag.0) else { return };
        let e = &mut self.slots[slot as usize];
        let old = e.issue_at();
        change(&mut e.place);
        let new = e.issue_at();
        self.refile(tag, old, new);
    }

    /// Queues `entry`, which the caller keeps unique by tag.
    pub(crate) fn insert(&mut self, entry: Entry<P>) {
        let tag = entry.tag;
        debug_assert!(self.by_tag.get(tag.0).is_none(), "{tag} is already queued");
        let slot = if let Some(s) = self.free.pop() {
            self.slots[s as usize] = entry;
            s
        } else {
            self.slots.push(entry);
            self.waiters.grow(2 * self.slots.len());
            (self.slots.len() - 1) as u32
        };
        self.by_tag.insert(tag.0, slot);
        self.waiters.subscribe(slot, &entry.ops);
        self.refile(tag, None, entry.issue_at());
    }

    /// Empties the store (flush), keeping the drain clock.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.by_tag.clear();
        self.waiters.clear();
        self.wheel.reset(self.drained_to);
        self.ready.clear();
    }

    /// Delivers `producer`'s announcement, ready at `at`, to every entry
    /// waiting on it, refiles each, and hands `woken` each one as it was
    /// before and as it is after.
    pub(crate) fn announce(
        &mut self,
        producer: InstTag,
        at: Cycle,
        mut woken: impl FnMut(Entry<P>, &Entry<P>),
    ) {
        let mut cur = self.waiters.first(producer);
        while let Some(node) = cur {
            let entry = &mut self.slots[(node / 2) as usize];
            let before = *entry;
            let hit = entry.ops.announce(producer, at);
            debug_assert!(hit, "waiter node on the wrong producer list");
            let after = *entry;
            self.refile(after.tag, before.issue_at(), after.issue_at());
            woken(before, &after);
            cur = self.waiters.next(node);
        }
    }

    /// Moves `tag` from where issue cycle `old` filed it to where `new`
    /// files it.
    fn refile(&mut self, tag: InstTag, old: Option<Cycle>, new: Option<Cycle>) {
        let drained = |at: Option<Cycle>| at.is_some_and(|at| at <= self.drained_to);
        if old == new || (drained(old) && drained(new)) {
            return;
        }
        match old {
            Some(_) if drained(old) => remove_sorted(&mut self.ready, tag),
            Some(o) => {
                let found = self.wheel.cancel(o, tag);
                debug_assert!(found, "a pending entry has its wheel record");
            }
            None => {}
        }
        match new {
            Some(_) if drained(new) => insert_sorted(&mut self.ready, tag),
            Some(n) => self.wheel.schedule(n, tag),
            None => {}
        }
    }

    /// Issues the entries issuable by `now`, oldest first, while `fus`
    /// has slots and a unit for each. Each leaves the store, appended to
    /// `out` and handed to `issued`.
    pub(crate) fn select(
        &mut self,
        now: Cycle,
        fus: &mut FuPool,
        out: &mut Vec<IssuedInst>,
        mut issued: impl FnMut(Entry<P>),
    ) {
        if now > self.drained_to {
            let mut due = std::mem::take(&mut self.scratch);
            self.wheel.drain_into(now, &mut due);
            self.drained_to = now;
            for &tag in &due {
                insert_sorted(&mut self.ready, tag);
            }
            due.clear();
            self.scratch = due;
        }
        let before = out.len();
        for &tag in &self.ready {
            if fus.slots_left() == 0 {
                break;
            }
            let Some(op) = self.get(tag).map(|e| e.op) else { continue };
            if fus.try_issue(now, op) {
                out.push(IssuedInst { tag, op });
            }
        }
        if out.len() == before {
            return;
        }
        // The issued tags are a subsequence of `ready`.
        let mut k = before;
        self.ready.retain(|&t| {
            let hit = out.get(k).is_some_and(|i| i.tag == t);
            k += usize::from(hit);
            !hit
        });
        for i in &out[before..] {
            let Some(slot) = self.by_tag.remove(i.tag.0) else { continue };
            let entry = self.slots[slot as usize];
            self.waiters.unsubscribe(slot, &entry.ops);
            self.free.push(slot);
            issued(entry);
        }
    }

    /// The first cycle after `quiet.now` at which a filed entry is
    /// issuable.
    pub(crate) fn next_event(&self, quiet: &QuietCycle) -> Cycle {
        if !self.ready.is_empty() {
            return quiet.now + 1;
        }
        self.wheel.next_due(Cycle::MAX).max(quiet.now + 1)
    }

    /// Writes the queued entries in tag order, laid out as a `Vec`.
    pub(crate) fn save(&self, w: &mut Writer)
    where
        P: Pack,
    {
        let order = self.by_tag.to_sorted_vec();
        w.put_u64(order.len() as u64);
        for (_, s) in order {
            self.slots[s as usize].pack(w);
        }
    }

    /// Replaces every entry with the `entries` an image of `queue` lists:
    /// at most `capacity` of them, in strictly ascending tag order, so no
    /// tag repeats. The drain clock restarts at cycle 0, so the first
    /// selection catches every entry up.
    pub(crate) fn restore(
        &mut self,
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
        self.drained_to = 0;
        self.clear();
        for &e in entries {
            self.insert(e);
        }
        Ok(())
    }
}

/// Inserts `tag` into the ascending `tags` unless it is there already.
pub(crate) fn insert_sorted(tags: &mut Vec<InstTag>, tag: InstTag) {
    if let Err(pos) = tags.binary_search(&tag) {
        tags.insert(pos, tag);
    }
}

/// Removes `tag` from the ascending `tags` if it is there.
pub(crate) fn remove_sorted(tags: &mut Vec<InstTag>, tag: InstTag) {
    if let Ok(pos) = tags.binary_search(&tag) {
        tags.remove(pos);
    }
}

/// Row occupancy and the two placement rules of a scheduling array.
#[derive(Debug, Clone)]
pub(crate) struct Rows {
    num_lines: u64,
    line_width: u32,
    /// The latency a load is predicted to produce its value in.
    load_latency: u64,
    /// Entries counted in each populated row, keyed by row cycle.
    counts: TagMap<u32>,
}

impl Rows {
    pub(crate) fn new(num_lines: usize, line_width: usize, load_latency: u64) -> Self {
        let (num_lines, line_width) = (num_lines as u64, line_width as u32);
        Rows { num_lines, line_width, load_latency, counts: TagMap::new() }
    }

    /// The last row an instruction placed at `now` may take.
    pub(crate) fn horizon(&self, now: Cycle) -> Cycle {
        now + self.num_lines
    }

    /// The booking rule: counts an instruction ready at `ready` into the
    /// first row with space at or after it, within `now + 1 ..=
    /// horizon(now)`; `None` when every such row is full.
    pub(crate) fn book(&mut self, ready: Cycle, now: Cycle) -> Option<Cycle> {
        let horizon = self.horizon(now);
        let row = (ready.clamp(now + 1, horizon)..=horizon).find(|&r| !self.is_full(r))?;
        self.add(row);
        Some(row)
    }

    /// The produce-latency rule: cycles from an instruction's row to the
    /// row its consumers are predicted ready in.
    pub(crate) fn produce_latency(&self, op: OpClass) -> u64 {
        if op == OpClass::Load {
            self.load_latency
        } else {
            u64::from(op.exec_latency())
        }
    }

    pub(crate) fn count(&self, row: Cycle) -> u32 {
        self.counts.get(row).unwrap_or(0)
    }

    /// Whether `row` has no slot left for a booking.
    pub(crate) fn is_full(&self, row: Cycle) -> bool {
        self.count(row) >= self.line_width
    }

    /// Counts one more entry in `row`, space or not.
    pub(crate) fn add(&mut self, row: Cycle) {
        self.counts.insert(row, self.count(row) + 1);
    }

    /// Counts one entry out of `row`, forgetting the row once empty.
    pub(crate) fn remove(&mut self, row: Cycle) {
        let n = self.count(row);
        debug_assert!(n > 0, "row count must track its entries");
        if n <= 1 {
            self.counts.remove(row);
        } else {
            self.counts.insert(row, n - 1);
        }
    }

    pub(crate) fn clear(&mut self) {
        self.counts.clear();
    }
}
