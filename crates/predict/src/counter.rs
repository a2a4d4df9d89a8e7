//! Saturating counters, the shared primitive of all three predictors.

/// An n-bit saturating up/down counter.
///
/// # Examples
///
/// ```
/// use chainiq_predict::SaturatingCounter;
///
/// let mut c = SaturatingCounter::new(2, 1); // 2-bit, starts weakly-not
/// c.inc();
/// c.inc();
/// c.inc(); // saturates at 3
/// assert_eq!(c.value(), 3);
/// c.dec();
/// assert_eq!(c.value(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturatingCounter {
    value: u8,
    max: u8,
}

impl SaturatingCounter {
    /// Creates a `bits`-wide counter with the given initial value.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 7, or if `initial` does
    /// not fit in `bits` bits.
    #[must_use]
    pub const fn new(bits: u8, initial: u8) -> Self {
        assert!(matches!(bits, 1..=7), "counter width out of range");
        let max = (1u8 << bits) - 1;
        assert!(initial <= max, "initial value does not fit");
        SaturatingCounter { value: initial, max }
    }

    /// Current value.
    #[must_use]
    pub fn value(self) -> u8 {
        self.value
    }

    /// Maximum representable value.
    #[must_use]
    pub fn max(self) -> u8 {
        self.max
    }

    /// Increments, saturating at the maximum.
    pub fn inc(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Decrements, saturating at zero.
    pub fn dec(&mut self) {
        self.value = self.value.saturating_sub(1);
    }

    /// Resets to zero (the HMP's clear-on-miss behaviour).
    pub fn clear(&mut self) {
        self.value = 0;
    }

    /// `true` when the value is in the upper half of the range (the usual
    /// taken / strong threshold).
    #[must_use]
    pub fn is_high(self) -> bool {
        self.value > self.max / 2
    }
}

impl chainiq_ckpt::Pack for SaturatingCounter {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        w.put_u8(self.value);
        w.put_u8(self.max);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        let value = r.take_u8("counter value")?;
        let max = r.take_u8("counter max")?;
        let width_ok = max != 0 && max != u8::MAX && (u16::from(max) + 1).is_power_of_two();
        if !width_ok || value > max {
            return Err(chainiq_ckpt::CkptError::Corrupt {
                context: format!("saturating counter {value}/{max}"),
            });
        }
        Ok(SaturatingCounter { value, max })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_both_ends() {
        let mut c = SaturatingCounter::new(2, 0);
        c.dec();
        assert_eq!(c.value(), 0);
        for _ in 0..10 {
            c.inc();
        }
        assert_eq!(c.value(), 3);
    }

    #[test]
    fn is_high_threshold() {
        // 2-bit: high for 2, 3.
        assert!(!SaturatingCounter::new(2, 0).is_high());
        assert!(!SaturatingCounter::new(2, 1).is_high());
        assert!(SaturatingCounter::new(2, 2).is_high());
        assert!(SaturatingCounter::new(2, 3).is_high());
        // 4-bit: high for 8..=15.
        assert!(!SaturatingCounter::new(4, 7).is_high());
        assert!(SaturatingCounter::new(4, 8).is_high());
    }

    #[test]
    fn clear_resets() {
        let mut c = SaturatingCounter::new(4, 15);
        c.clear();
        assert_eq!(c.value(), 0);
    }

    #[test]
    #[should_panic(expected = "width out of range")]
    fn zero_width_panics() {
        let _ = SaturatingCounter::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_initial_panics() {
        let _ = SaturatingCounter::new(2, 4);
    }
}
