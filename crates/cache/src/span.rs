//! Line/page span computation for the hierarchy hot loop.
//!
//! [`CoherentHierarchy`](crate::CoherentHierarchy) splits every access
//! into the cache lines (and pages) it touches. The reference walks spell
//! the split out inline as `(addr + width.max(1) - 1) / line_bytes`,
//! paying a 64-bit division per access per level. [`SpanUnit`] hoists that
//! computation into one place and replaces the division with a shift
//! whenever the unit size is a power of two (always true for cache lines —
//! [`CacheConfig::sets`] asserts it — and true for every realistic page
//! size; non-power-of-two units fall back to the division, bit-for-bit
//! identical).
//!
//! [`CacheConfig::sets`]: crate::CacheConfig::sets

/// The half-open unit count is never needed: a span is the *inclusive*
/// range `[first, last]` of line (or page) numbers an access touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    /// Unit number containing the first byte of the access.
    pub first: u64,
    /// Unit number containing the last byte of the access.
    pub last: u64,
}

impl Span {
    /// Whether the access stayed inside one line/page — the common case
    /// the hierarchy fast-paths.
    #[inline]
    pub fn is_single(self) -> bool {
        self.first == self.last
    }
}

/// A precomputed divider for one span unit (a line size or a page size),
/// built once per hierarchy instead of re-deriving per access.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanUnit {
    bytes: u64,
    /// `Some(log2(bytes))` when `bytes` is a power of two; `None` keeps
    /// the exact division fallback for irregular unit sizes.
    shift: Option<u32>,
}

impl SpanUnit {
    /// Build a divider for `bytes`-sized units.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn new(bytes: u64) -> Self {
        assert!(bytes > 0, "span unit must be non-zero");
        SpanUnit { bytes, shift: bytes.is_power_of_two().then(|| bytes.trailing_zeros()) }
    }

    /// Unit size in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        self.bytes
    }

    /// Unit number containing byte address `addr`.
    #[inline]
    pub fn index_of(self, addr: u64) -> u64 {
        match self.shift {
            Some(s) => addr >> s,
            None => addr / self.bytes,
        }
    }

    /// The units a `width`-byte access at `addr` touches. Zero-width
    /// accesses are clamped to one byte, exactly as the reference walks do
    /// (`width.max(1)`).
    #[inline]
    pub fn lines_touched(self, addr: u64, width: u8) -> Span {
        let last_byte = addr + (width.max(1) as u64 - 1);
        Span { first: self.index_of(addr), last: self.index_of(last_byte) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_width_touches_exactly_one_unit() {
        // width 0 is clamped to 1 byte — the reference walks'
        // `width.max(1)` behaviour.
        let u = SpanUnit::new(64);
        assert_eq!(u.lines_touched(0, 0), Span { first: 0, last: 0 });
        assert_eq!(u.lines_touched(63, 0), Span { first: 0, last: 0 });
        assert_eq!(u.lines_touched(64, 0), Span { first: 1, last: 1 });
        assert!(u.lines_touched(63, 0).is_single());
    }

    #[test]
    fn straddling_access_spans_both_units() {
        let u = SpanUnit::new(64);
        // 8 bytes at 60: bytes 60..=67 touch lines 0 and 1.
        let s = u.lines_touched(60, 8);
        assert_eq!(s, Span { first: 0, last: 1 });
        assert!(!s.is_single());
        // 8 bytes at 56: bytes 56..=63 stay in line 0.
        assert!(u.lines_touched(56, 8).is_single());
        // One byte exactly on the boundary belongs to the next line.
        assert_eq!(u.lines_touched(64, 1), Span { first: 1, last: 1 });
    }

    #[test]
    fn max_width_access_spans_at_most_ceil_plus_one_units() {
        // The widest possible access (u8::MAX bytes) across 64-byte lines
        // touches at most ceil(255/64)+1 = 5 lines, and exactly 4 when
        // aligned.
        let u = SpanUnit::new(64);
        let aligned = u.lines_touched(0, u8::MAX);
        assert_eq!(aligned, Span { first: 0, last: 3 }); // bytes 0..=254
        let misaligned = u.lines_touched(63, u8::MAX);
        assert_eq!(misaligned, Span { first: 0, last: 4 }); // bytes 63..=317
    }

    #[test]
    fn non_power_of_two_units_divide_exactly() {
        // Page sizes are not asserted to be powers of two anywhere, so the
        // fallback division must agree with the shift path's semantics.
        let u = SpanUnit::new(3000);
        assert_eq!(u.index_of(2999), 0);
        assert_eq!(u.index_of(3000), 1);
        assert_eq!(u.lines_touched(2998, 8), Span { first: 0, last: 1 });
        // And a power-of-two unit built the same way uses the shift.
        let p = SpanUnit::new(4096);
        assert_eq!(p.index_of(4095), 0);
        assert_eq!(p.index_of(4096), 1);
        assert_eq!(p.lines_touched(4090, 16), Span { first: 0, last: 1 });
    }

    #[test]
    fn shift_and_division_agree_across_a_sweep() {
        let shifted = SpanUnit::new(64);
        for addr in 0..1024u64 {
            for width in [0u8, 1, 7, 8, 63, 64, 65, 255] {
                let last_byte = addr + width.max(1) as u64 - 1;
                let expect = Span { first: addr / 64, last: last_byte / 64 };
                assert_eq!(shifted.lines_touched(addr, width), expect);
            }
        }
    }
}
