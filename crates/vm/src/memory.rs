//! Demand-paged simulated memory.
//!
//! The simulated address space is 64-bit and byte addressed. Pages come into
//! existence on first touch — exactly the behaviour that lets HALO's
//! allocator reserve "large, demand-paged slabs" (§4.4) without committing
//! memory — and the set of touched pages is what the fragmentation
//! experiment (Table 1) counts as *resident*.

use std::collections::HashMap;

/// Size of a simulated page in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// A byte-addressed, demand-paged 64-bit simulated memory.
///
/// Reads from never-touched pages return zeroes without materialising the
/// page; writes materialise pages on demand. Accesses may straddle page
/// boundaries.
#[derive(Debug, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
}

impl Memory {
    /// Create an empty memory.
    pub fn new() -> Self {
        Memory { pages: HashMap::new() }
    }

    /// Number of pages that have been materialised by writes.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Count materialised pages within `[start, start + len)`.
    pub fn resident_pages_in(&self, start: u64, len: u64) -> usize {
        if len == 0 {
            return 0;
        }
        let first = start / PAGE_SIZE;
        let last = (start + len - 1) / PAGE_SIZE;
        (first..=last).filter(|p| self.pages.contains_key(p)).count()
    }

    /// Read `width` bytes (1, 2, 4, or 8) at `addr`, zero-extended.
    pub fn read(&self, addr: u64, width: u64) -> u64 {
        debug_assert!(matches!(width, 1 | 2 | 4 | 8));
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf[..width as usize]);
        u64::from_le_bytes(buf)
    }

    /// Write the low `width` bytes (1, 2, 4, or 8) of `value` at `addr`.
    pub fn write(&mut self, addr: u64, width: u64, value: u64) {
        debug_assert!(matches!(width, 1 | 2 | 4 | 8));
        let bytes = value.to_le_bytes();
        self.write_bytes(addr, &bytes[..width as usize]);
    }

    /// Read into `buf`, zero-filling bytes on untouched pages.
    pub fn read_bytes(&self, mut addr: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let page = addr / PAGE_SIZE;
            let off = (addr % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize - off).min(buf.len() - done)).max(1);
            match self.pages.get(&page) {
                Some(p) => buf[done..done + n].copy_from_slice(&p[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Write `buf` at `addr`, materialising pages as needed.
    pub fn write_bytes(&mut self, mut addr: u64, buf: &[u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let page = addr / PAGE_SIZE;
            let off = (addr % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize - off).min(buf.len() - done)).max(1);
            let p = self.pages.entry(page).or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]));
            p[off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Copy `len` bytes from `src` to `dst` (used by `realloc` to move
    /// object contents). Handles overlap like `memmove`.
    pub fn copy(&mut self, dst: u64, src: u64, len: u64) {
        if len == 0 || dst == src {
            return;
        }
        let mut buf = vec![0u8; len as usize];
        self.read_bytes(src, &mut buf);
        self.write_bytes(dst, &buf);
    }

    /// Zero `len` bytes at `addr` (used by `calloc`).
    pub fn zero(&mut self, addr: u64, len: u64) {
        // Writing zeroes still materialises pages: calloc'd memory is
        // touched memory as far as residency accounting is concerned.
        let zeros = [0u8; 256];
        let mut done = 0u64;
        while done < len {
            let n = (len - done).min(zeros.len() as u64);
            self.write_bytes(addr + done, &zeros[..n as usize]);
            done += n;
        }
    }

    /// Discard (unmap) all materialised pages fully contained in
    /// `[start, start + len)`. Models an allocator purging dirty pages back
    /// to the OS; subsequent reads in the range see zeroes.
    pub fn discard(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first_full = start.div_ceil(PAGE_SIZE);
        let end = start + len;
        let last_full = end / PAGE_SIZE; // exclusive
        for p in first_full..last_full {
            self.pages.remove(&p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_untouched_returns_zero_without_materialising() {
        let m = Memory::new();
        assert_eq!(m.read(0xdead_beef, 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_then_read_roundtrip_all_widths() {
        let mut m = Memory::new();
        for (w, v) in [(1u64, 0xabu64), (2, 0xbeef), (4, 0xdead_beef), (8, 0x0123_4567_89ab_cdef)] {
            m.write(100, w, v);
            assert_eq!(m.read(100, w), v, "width {w}");
        }
    }

    #[test]
    fn narrow_write_zero_extends_on_read() {
        let mut m = Memory::new();
        m.write(8, 8, u64::MAX);
        m.write(8, 2, 0x1234);
        assert_eq!(m.read(8, 2), 0x1234);
        // Bytes 2..8 still hold 0xff.
        assert_eq!(m.read(8, 8), 0xffff_ffff_ffff_1234);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 4;
        m.write(addr, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(addr, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn copy_moves_bytes_including_overlap() {
        let mut m = Memory::new();
        m.write_bytes(0, b"hello world");
        m.copy(100, 0, 11);
        let mut buf = [0u8; 11];
        m.read_bytes(100, &mut buf);
        assert_eq!(&buf, b"hello world");
        // Overlapping forward copy.
        m.copy(102, 100, 9);
        let mut buf2 = [0u8; 9];
        m.read_bytes(102, &mut buf2);
        assert_eq!(&buf2, b"hello wor");
    }

    #[test]
    fn zero_clears_and_materialises() {
        let mut m = Memory::new();
        m.write(4096, 8, u64::MAX);
        m.zero(4096, 1000);
        assert_eq!(m.read(4096, 8), 0);
        assert!(m.resident_pages() >= 1);
    }

    #[test]
    fn discard_removes_only_fully_contained_pages() {
        let mut m = Memory::new();
        // Touch three consecutive pages.
        m.write(0, 1, 1);
        m.write(PAGE_SIZE, 1, 1);
        m.write(2 * PAGE_SIZE, 1, 1);
        assert_eq!(m.resident_pages(), 3);
        // Range covering the middle page fully, the outer two partially.
        m.discard(10, 2 * PAGE_SIZE);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read(PAGE_SIZE, 1), 0);
        assert_eq!(m.read(0, 1), 1);
    }

    #[test]
    fn resident_pages_in_counts_range() {
        let mut m = Memory::new();
        m.write(0, 1, 1);
        m.write(5 * PAGE_SIZE, 1, 1);
        assert_eq!(m.resident_pages_in(0, PAGE_SIZE), 1);
        assert_eq!(m.resident_pages_in(0, 6 * PAGE_SIZE), 2);
        assert_eq!(m.resident_pages_in(PAGE_SIZE, PAGE_SIZE), 0);
        assert_eq!(m.resident_pages_in(0, 0), 0);
    }
}
