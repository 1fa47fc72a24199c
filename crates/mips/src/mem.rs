//! Sparse physical memory.
//!
//! Accesses are by physical address; translation happens in
//! [`crate::machine`]. Out-of-range accesses return [`BusError`], which the
//! machine turns into a bus-error exception.
//!
//! Storage is page-granular and demand-zero: a 4 KB page is allocated by
//! its first write, a page never written reads as zero, and zero-filling a
//! whole page releases it. A machine's resident memory therefore follows
//! the pages it has written, not its physical size.

use std::error::Error;
use std::fmt;

/// Access past the end of physical memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BusError {
    /// The offending physical address.
    pub paddr: u32,
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bus error at physical address {:#010x}", self.paddr)
    }
}

impl Error for BusError {}

/// Page shift (4 KB pages, matching [`crate::tlb::PAGE_SIZE`]).
const PAGE_SHIFT: u32 = 12;

/// Bytes per page: the granule of allocation and of the write versions.
pub const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

const PAGE_MASK: usize = PAGE_BYTES - 1;

/// One page of storage.
type Page = [u8; PAGE_BYTES];

/// What every page that holds no storage reads as.
static ZERO_PAGE: Page = [0; PAGE_BYTES];

/// Byte-addressable physical memory, little-endian like the DECstation's
/// R3000 configuration.
///
/// Every write bumps a per-page **version counter** ([`Memory::page_version`]).
/// The decode cache in [`crate::machine::Machine`] tags cached instructions
/// with the version of the page they were fetched from, so any store to
/// mapped text — guest stores, host `mem_mut()` writes, image loads —
/// invalidates the affected cache lines without explicit hooks. A `u16` or
/// `u32` write that straddles two pages (only host writes can) bumps the
/// first page only.
#[derive(Clone, Debug)]
pub struct Memory {
    size: usize,
    /// Storage per page; `None` reads as zero.
    pages: Vec<Option<Box<Page>>>,
    page_versions: Vec<u32>,
}

impl Memory {
    /// Creates `size` bytes of zeroed physical memory. No page is
    /// allocated until it is written.
    pub fn new(size: usize) -> Memory {
        let pages = size.div_ceil(PAGE_BYTES);
        Memory {
            size,
            pages: vec![None; pages],
            page_versions: vec![0; pages],
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The pages that hold storage, as `(paddr >> 12, bytes)` in ascending
    /// order. A resident page may be all zero (written with zeros, or
    /// zero-filled in part); a page past the end of memory reads as zero
    /// beyond it.
    pub fn resident_pages(&self) -> impl Iterator<Item = (u32, &[u8; PAGE_BYTES])> {
        (0u32..)
            .zip(&self.pages)
            .filter_map(|(idx, page)| Some((idx, page.as_deref()?)))
    }

    /// The write-version of the page containing `paddr`. Out-of-range
    /// addresses report version 0 (they hold no cacheable text).
    pub fn page_version(&self, paddr: u32) -> u32 {
        self.page_versions
            .get((paddr >> PAGE_SHIFT) as usize)
            .copied()
            .unwrap_or(0)
    }

    fn bump_page(&mut self, paddr: u32) {
        let page = (paddr >> PAGE_SHIFT) as usize;
        if let Some(v) = self.page_versions.get_mut(page) {
            *v = v.wrapping_add(1);
        }
    }

    fn bump_range(&mut self, paddr: u32, len: usize) {
        if len == 0 {
            return;
        }
        let first = (paddr >> PAGE_SHIFT) as usize;
        let last = (((paddr as usize + len - 1) >> PAGE_SHIFT) + 1).min(self.page_versions.len());
        for v in &mut self.page_versions[first..last] {
            *v = v.wrapping_add(1);
        }
    }

    fn check(&self, paddr: u32, len: usize) -> Result<usize, BusError> {
        let i = paddr as usize;
        match i.checked_add(len) {
            Some(end) if end <= self.size => Ok(i),
            _ => Err(BusError { paddr }),
        }
    }

    /// The page holding byte `i` (in range), or the zero page.
    #[inline(always)]
    fn page(&self, i: usize) -> &Page {
        self.pages[i >> PAGE_SHIFT].as_deref().unwrap_or(&ZERO_PAGE)
    }

    /// The page holding byte `i` (in range), allocated if absent.
    fn page_mut(&mut self, i: usize) -> &mut Page {
        self.pages[i >> PAGE_SHIFT].get_or_insert_with(|| {
            vec![0; PAGE_BYTES]
                .into_boxed_slice()
                .try_into()
                .expect("one page")
        })
    }

    /// Reads `N` bytes at `paddr`: the load hot path when they lie in one
    /// page.
    #[inline(always)]
    fn read_array<const N: usize>(&self, paddr: u32) -> Result<[u8; N], BusError> {
        let i = self.check(paddr, N)?;
        let off = i & PAGE_MASK;
        if off + N > PAGE_BYTES {
            return Ok(self.read_straddling(i));
        }
        Ok(self.page(i)[off..off + N]
            .try_into()
            .expect("N bytes in one page"))
    }

    #[cold]
    #[inline(never)]
    fn read_straddling<const N: usize>(&self, i: usize) -> [u8; N] {
        let mut out = [0; N];
        self.copy_out(i, &mut out);
        out
    }

    /// Writes `N` bytes at `paddr`: the store hot path when their page is
    /// resident and holds them all. Bumps the first page's version only.
    #[inline(always)]
    fn write_array<const N: usize>(&mut self, paddr: u32, bytes: [u8; N]) -> Result<(), BusError> {
        let i = self.check(paddr, N)?;
        let off = i & PAGE_MASK;
        match self.pages[i >> PAGE_SHIFT].as_deref_mut() {
            Some(page) if off + N <= PAGE_BYTES => page[off..off + N].copy_from_slice(&bytes),
            _ => self.write_allocating(i, &bytes),
        }
        self.bump_page(paddr);
        Ok(())
    }

    /// The store slow path: the page must be allocated, or the bytes
    /// straddle two pages.
    #[cold]
    #[inline(never)]
    fn write_allocating(&mut self, i: usize, data: &[u8]) {
        self.copy_in(i, data);
    }

    /// Copies in-range memory starting at byte `i` into `out`, page by page.
    fn copy_out(&self, mut i: usize, mut out: &mut [u8]) {
        while !out.is_empty() {
            let off = i & PAGE_MASK;
            let n = (PAGE_BYTES - off).min(out.len());
            let (head, rest) = std::mem::take(&mut out).split_at_mut(n);
            head.copy_from_slice(&self.page(i)[off..off + n]);
            i += n;
            out = rest;
        }
    }

    /// Copies `data` into in-range memory starting at byte `i`, page by
    /// page, allocating pages as needed.
    fn copy_in(&mut self, mut i: usize, mut data: &[u8]) {
        while !data.is_empty() {
            let off = i & PAGE_MASK;
            let n = (PAGE_BYTES - off).min(data.len());
            let (head, rest) = data.split_at(n);
            self.page_mut(i)[off..off + n].copy_from_slice(head);
            i += n;
            data = rest;
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, paddr: u32) -> Result<u8, BusError> {
        self.read_array(paddr).map(|[b]| b)
    }

    /// Reads a halfword. The address must already be aligned (the machine
    /// checks alignment before translation).
    pub fn read_u16(&self, paddr: u32) -> Result<u16, BusError> {
        self.read_array(paddr).map(u16::from_le_bytes)
    }

    /// Reads a word.
    pub fn read_u32(&self, paddr: u32) -> Result<u32, BusError> {
        self.read_array(paddr).map(u32::from_le_bytes)
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, paddr: u32, v: u8) -> Result<(), BusError> {
        self.write_array(paddr, [v])
    }

    /// Writes a halfword.
    pub fn write_u16(&mut self, paddr: u32, v: u16) -> Result<(), BusError> {
        self.write_array(paddr, v.to_le_bytes())
    }

    /// Writes a word.
    pub fn write_u32(&mut self, paddr: u32, v: u32) -> Result<(), BusError> {
        self.write_array(paddr, v.to_le_bytes())
    }

    /// Copies a slice into memory.
    pub fn write_bytes(&mut self, paddr: u32, data: &[u8]) -> Result<(), BusError> {
        let i = self.check(paddr, data.len())?;
        self.copy_in(i, data);
        self.bump_range(paddr, data.len());
        Ok(())
    }

    /// Copies `out.len()` bytes starting at `paddr` into `out`.
    pub fn read_into(&self, paddr: u32, out: &mut [u8]) -> Result<(), BusError> {
        let i = self.check(paddr, out.len())?;
        self.copy_out(i, out);
        Ok(())
    }

    /// Zero-fills a range. Pages it covers whole (up to the end of memory
    /// for a trailing partial page) are released.
    pub fn zero(&mut self, paddr: u32, len: usize) -> Result<(), BusError> {
        let mut i = self.check(paddr, len)?;
        let end = i + len;
        while i < end {
            let off = i & PAGE_MASK;
            let n = (PAGE_BYTES - off).min(end - i);
            let page = &mut self.pages[i >> PAGE_SHIFT];
            if off == 0 && (n == PAGE_BYTES || i + n == self.size) {
                *page = None;
            } else if let Some(page) = page.as_deref_mut() {
                page[off..off + n].fill(0);
            }
            i += n;
        }
        self.bump_range(paddr, len);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_round_trip_little_endian() {
        let mut m = Memory::new(64);
        m.write_u32(0, 0x1234_5678).unwrap();
        assert_eq!(m.read_u32(0).unwrap(), 0x1234_5678);
        assert_eq!(m.read_u8(0).unwrap(), 0x78);
        assert_eq!(m.read_u8(3).unwrap(), 0x12);
        assert_eq!(m.read_u16(2).unwrap(), 0x1234);
    }

    #[test]
    fn out_of_range_is_bus_error() {
        let mut m = Memory::new(8);
        assert_eq!(m.read_u32(8).unwrap_err(), BusError { paddr: 8 });
        assert_eq!(m.read_u32(6).unwrap_err(), BusError { paddr: 6 });
        assert!(m.write_u8(7, 1).is_ok());
        assert!(m.write_u16(7, 1).is_err());
    }

    #[test]
    fn page_versions_track_every_write_path() {
        let mut m = Memory::new(3 << 12);
        assert_eq!(m.page_version(0), 0);
        m.write_u8(0x10, 1).unwrap();
        m.write_u16(0x20, 2).unwrap();
        m.write_u32(0x30, 3).unwrap();
        assert_eq!(m.page_version(0xfff), 3, "same page, three writes");
        assert_eq!(m.page_version(0x1000), 0, "neighbour untouched");
        // A spanning copy bumps every page it touches.
        m.write_bytes(0x0ffe, &[0; 4]).unwrap();
        assert_eq!(m.page_version(0), 4);
        assert_eq!(m.page_version(0x1000), 1);
        m.zero(0x1000, 2 << 12).unwrap();
        assert_eq!(m.page_version(0x1000), 2);
        assert_eq!(m.page_version(0x2000), 1);
        // Reads never bump; out-of-range queries report 0.
        m.read_u32(0).unwrap();
        assert_eq!(m.page_version(0), 4);
        assert_eq!(m.page_version(0x4000_0000), 0);
    }

    #[test]
    fn bulk_copy_and_zero() {
        let mut m = Memory::new(16);
        let mut out = [0; 4];
        m.write_bytes(4, &[1, 2, 3, 4]).unwrap();
        m.read_into(4, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
        m.zero(5, 2).unwrap();
        m.read_into(4, &mut out).unwrap();
        assert_eq!(out, [1, 0, 0, 4]);
    }
}
