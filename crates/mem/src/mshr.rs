//! Miss-status holding registers.

use crate::Cycle;

/// Result of asking the MSHR file to track a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrGrant {
    /// A new MSHR was allocated for this line.
    Allocated,
    /// The line already has an outstanding fill; this access merged into
    /// it and will complete when that fill arrives (a *delayed hit*).
    Merged {
        /// Cycle at which the outstanding fill lands.
        fill_at: Cycle,
    },
    /// All MSHRs are busy with other lines; the access must retry.
    Exhausted,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    line: u64,
    fill_at: Cycle,
    /// Secondary references merged into this entry.
    merged: u32,
}

/// A file of miss-status holding registers for one cache level.
///
/// Each entry tracks one outstanding line fill. Entries free themselves
/// implicitly once simulated time passes their fill cycle (`now >=
/// fill_at`), matching the behaviour of a hardware MSHR released on fill.
///
/// # Examples
///
/// ```
/// use chainiq_mem::{MshrFile, MshrGrant};
///
/// let mut m = MshrFile::new(2);
/// assert_eq!(m.request(0, 0x40, 100), MshrGrant::Allocated);
/// // Same line, still in flight: a delayed hit.
/// assert_eq!(m.request(5, 0x40, 120), MshrGrant::Merged { fill_at: 100 });
/// assert_eq!(m.request(6, 0x80, 110), MshrGrant::Allocated);
/// // Third distinct line while both entries are live: exhausted.
/// assert_eq!(m.request(7, 0xC0, 130), MshrGrant::Exhausted);
/// // After the first fill lands its entry is reusable.
/// assert_eq!(m.request(100, 0xC0, 200), MshrGrant::Allocated);
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    entries: Vec<Entry>,
    /// One-word summary of the lines in `entries`: bit `hash(line)` is
    /// set for every entry present. `outstanding` is called on every
    /// cache access and almost always finds nothing in flight, so the
    /// common case must not scan the file; a clear filter bit proves
    /// absence. Bits can be stale-set (entries expire lazily), which
    /// only costs a wasted scan, never a wrong answer.
    line_filter: u64,
    peak_in_use: usize,
    total_allocations: u64,
    total_merges: u64,
    total_rejections: u64,
}

/// Maps a line address onto a `line_filter` bit. Line addresses share
/// low zero bits, so spread them with a multiplicative hash first.
#[inline]
fn filter_bit(line: u64) -> u64 {
    1u64 << (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

impl MshrFile {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an MSHR file needs at least one register");
        MshrFile {
            capacity,
            entries: Vec::with_capacity(capacity),
            line_filter: 0,
            peak_in_use: 0,
            total_allocations: 0,
            total_merges: 0,
            total_rejections: 0,
        }
    }

    fn expire(&mut self, now: Cycle) {
        self.entries.retain(|e| e.fill_at > now);
        self.line_filter = self.entries.iter().fold(0, |f, e| f | filter_bit(e.line));
    }

    /// Requests tracking for a miss on `line` whose fill would land at
    /// `fill_at`. `now` is the current cycle (used to expire completed
    /// entries).
    pub fn request(&mut self, now: Cycle, line: u64, fill_at: Cycle) -> MshrGrant {
        self.expire(now);
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.merged += 1;
            self.total_merges += 1;
            return MshrGrant::Merged { fill_at: e.fill_at };
        }
        if self.entries.len() >= self.capacity {
            self.total_rejections += 1;
            return MshrGrant::Exhausted;
        }
        self.entries.push(Entry { line, fill_at, merged: 0 });
        self.line_filter |= filter_bit(line);
        self.total_allocations += 1;
        self.peak_in_use = self.peak_in_use.max(self.entries.len());
        MshrGrant::Allocated
    }

    /// Returns the outstanding fill time for `line`, if one is in flight.
    #[must_use]
    pub fn outstanding(&self, now: Cycle, line: u64) -> Option<Cycle> {
        if self.line_filter & filter_bit(line) == 0 {
            return None; // proven absent without scanning the file
        }
        self.entries.iter().find(|e| e.line == line && e.fill_at > now).map(|e| e.fill_at)
    }

    /// Number of entries currently in flight at `now`.
    #[must_use]
    pub fn in_use(&self, now: Cycle) -> usize {
        self.entries.iter().filter(|e| e.fill_at > now).count()
    }

    /// The first cycle after `now` at which an in-flight entry fills and
    /// frees its register, or `None` if nothing is in flight.
    #[must_use]
    pub fn next_fill(&self, now: Cycle) -> Option<Cycle> {
        self.entries.iter().map(|e| e.fill_at).filter(|&at| at > now).min()
    }

    /// Highest simultaneous occupancy observed.
    #[must_use]
    pub fn peak_in_use(&self) -> usize {
        self.peak_in_use
    }

    /// Total primary-miss allocations.
    #[must_use]
    pub fn allocations(&self) -> u64 {
        self.total_allocations
    }

    /// Total secondary references merged (delayed hits at this level).
    #[must_use]
    pub fn merges(&self) -> u64 {
        self.total_merges
    }

    /// Total requests rejected because the file was full.
    #[must_use]
    pub fn rejections(&self) -> u64 {
        self.total_rejections
    }
}

chainiq_ckpt::pack_fields!(Entry { line, fill_at, merged });

impl chainiq_ckpt::Pack for MshrFile {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.capacity.pack(w);
        self.entries.pack(w);
        self.peak_in_use.pack(w);
        self.total_allocations.pack(w);
        self.total_merges.pack(w);
        self.total_rejections.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        let capacity: usize = Pack::unpack(r)?;
        let entries: Vec<Entry> = Pack::unpack(r)?;
        if capacity == 0 || entries.len() > capacity {
            return Err(chainiq_ckpt::CkptError::Corrupt {
                context: format!("MSHR file: {} entries in capacity {capacity}", entries.len()),
            });
        }
        let line_filter = entries.iter().fold(0, |f, e| f | filter_bit(e.line));
        Ok(MshrFile {
            capacity,
            entries,
            line_filter,
            peak_in_use: Pack::unpack(r)?,
            total_allocations: Pack::unpack(r)?,
            total_merges: Pack::unpack(r)?,
            total_rejections: Pack::unpack(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_full_then_reject() {
        let mut m = MshrFile::new(3);
        for i in 0..3 {
            assert_eq!(m.request(0, i, 50), MshrGrant::Allocated);
        }
        assert_eq!(m.request(0, 99, 50), MshrGrant::Exhausted);
        assert_eq!(m.rejections(), 1);
        assert_eq!(m.peak_in_use(), 3);
    }

    #[test]
    fn merge_returns_original_fill_time() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.request(0, 7, 42), MshrGrant::Allocated);
        assert_eq!(m.request(10, 7, 99), MshrGrant::Merged { fill_at: 42 });
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn entries_expire_when_fill_lands() {
        let mut m = MshrFile::new(1);
        m.request(0, 7, 42);
        assert_eq!(m.in_use(41), 1);
        assert_eq!(m.in_use(42), 0);
        // At cycle 42 the entry is expired, so a new line allocates.
        assert_eq!(m.request(42, 8, 100), MshrGrant::Allocated);
    }

    #[test]
    fn next_fill_is_the_earliest_inflight_fill() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.next_fill(0), None);
        m.request(0, 7, 42);
        m.request(0, 8, 30);
        m.request(0, 9, 55);
        assert_eq!(m.next_fill(0), Some(30));
        assert_eq!(m.next_fill(30), Some(42), "a landed fill no longer counts");
        assert_eq!(m.next_fill(55), None);
    }

    #[test]
    fn outstanding_reports_inflight_lines_only() {
        let mut m = MshrFile::new(2);
        m.request(0, 7, 42);
        assert_eq!(m.outstanding(10, 7), Some(42));
        assert_eq!(m.outstanding(42, 7), None);
        assert_eq!(m.outstanding(10, 8), None);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }

    #[test]
    fn many_merges_into_one_entry() {
        let mut m = MshrFile::new(1);
        m.request(0, 7, 1000);
        for t in 1..50 {
            assert!(matches!(m.request(t, 7, 2000), MshrGrant::Merged { fill_at: 1000 }));
        }
        assert_eq!(m.merges(), 49);
        assert_eq!(m.allocations(), 1);
    }
}
