//! Read-only file mappings without a `libc` dependency.
//!
//! The binary graph loader wants the kernel's page cache to *be* the graph:
//! `mmap` the file once and borrow the CSR sections straight out of the
//! mapping, so loading costs a few page faults instead of a parse and three
//! allocations. The repo links no external crates, so the mapping syscalls
//! are issued directly (Linux x86-64 only, behind a `cfg` gate); every other
//! platform falls back to reading the file into an 8-byte-aligned heap
//! buffer, which keeps the rest of the loader identical.
//!
//! [`Bytes`] is the common currency: "some immutable, 8-byte-aligned byte
//! region that lives as long as I do", whether it came from `mmap` or from
//! `read`. The graph keeps an `Arc<Bytes>` and borrows its sections from it.

use std::fs::File;
use std::io::{self, Read};

/// A read-only memory mapping of an entire file.
///
/// The pointer is page-aligned (so in particular 8-byte-aligned) and valid
/// for `len` bytes until drop, which unmaps it. The mapping is private
/// (copy-on-write semantics are irrelevant: `PROT_READ` only).
pub struct Mapping {
    ptr: *const u8,
    len: usize,
}

// The mapping is immutable shared memory; the raw pointer is the only reason
// Send/Sync are not derived.
// SAFETY: a `Mapping` owns its region (only `drop` unmaps it, once), so moving
// it to another thread moves sole ownership of the pages with it.
unsafe impl Send for Mapping {}
// SAFETY: the region is mapped `PROT_READ` and no method writes through the
// pointer, so shared references on many threads only ever read it.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `file` (of size `len`) read-only. Returns `Ok(None)` on targets
    /// where the repo has no syscall shim, so callers fall back to `read`.
    pub fn map_file(file: &File, len: usize) -> io::Result<Option<Mapping>> {
        if len == 0 {
            return Ok(None);
        }
        sys::map_readonly(file, len)
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: a successful mmap returned `ptr`, valid for `len` bytes
        // until `drop` unmaps it, which the borrow of `self` rules out; the
        // pages are `PROT_READ`, so nobody mutates them while borrowed. (A
        // file truncated under the mapping would fault on access instead:
        // served files are assumed immutable.)
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        sys::unmap(self.ptr, self.len);
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use super::Mapping;
    use std::arch::asm;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const SYS_MMAP: u64 = 9;
    const SYS_MUNMAP: u64 = 11;
    const PROT_READ: u64 = 1;
    const MAP_PRIVATE: u64 = 2;

    pub(super) fn map_readonly(file: &File, len: usize) -> io::Result<Option<Mapping>> {
        let fd = file.as_raw_fd();
        let ret: i64;
        // mmap(NULL, len, PROT_READ, MAP_PRIVATE, fd, 0)
        // SAFETY: the syscall reads only its six argument registers and
        // clobbers rax, rcx and r11, all declared; it touches no Rust memory
        // (the kernel picks the address), `fd` is open for the borrow of
        // `file`, and `len > 0` was checked by `map_file`.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") SYS_MMAP => ret,
                in("rdi") 0u64,
                in("rsi") len as u64,
                in("rdx") PROT_READ,
                in("r10") MAP_PRIVATE,
                in("r8") fd as u64,
                in("r9") 0u64,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        // Errors come back as -errno in the return register.
        if (-4095..0).contains(&ret) {
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        Ok(Some(Mapping {
            ptr: ret as usize as *const u8,
            len,
        }))
    }

    pub(super) fn unmap(ptr: *const u8, len: usize) {
        let _ret: i64;
        // SAFETY: `ptr`/`len` are exactly a region `map_readonly` mapped, and
        // this runs once, from `Mapping::drop`, after every borrow of the
        // slice has ended; registers as in `map_readonly`.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") SYS_MUNMAP => _ret,
                in("rdi") ptr as u64,
                in("rsi") len as u64,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use super::Mapping;
    use std::fs::File;
    use std::io;

    pub(super) fn map_readonly(_file: &File, _len: usize) -> io::Result<Option<Mapping>> {
        Ok(None)
    }

    pub(super) fn unmap(_ptr: *const u8, _len: usize) {
        unreachable!("no mappings are created on this target")
    }
}

/// A heap buffer whose bytes are 8-byte aligned (it is allocated as `u64`
/// words), so the same section-casting code serves mapped and read files.
pub struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    /// Reads all of `file` (of size `len`) into an aligned buffer.
    pub fn read_from(file: &mut File, len: usize) -> io::Result<AlignedBuf> {
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: `words` holds `len.div_ceil(8) * 8 >= len` initialised
        // bytes, u8 has no alignment and every bit pattern is valid for both
        // types, and `words` is not touched while `bytes` lives.
        let bytes = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, len) };
        file.read_exact(bytes)?;
        AlignedBuf::check_trailing(file)?;
        Ok(AlignedBuf { words, len })
    }

    /// Rejects files that grew past the length the caller measured; the
    /// loader's bounds checks assume `len` covers the whole file.
    fn check_trailing(file: &mut File) -> io::Result<()> {
        let mut probe = [0u8; 1];
        match file.read(&mut probe)? {
            0 => Ok(()),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file changed size while being read",
            )),
        }
    }

    /// The buffered bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `read_from` sized `words` to at least `len` initialised
        // bytes and nothing mutates them after construction; the slice
        // borrows `self`.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }
}

/// An immutable, 8-byte-aligned byte region backing a loaded graph: a kernel
/// mapping where the platform shim exists, a heap buffer otherwise.
pub enum Bytes {
    /// Pages borrowed from the kernel's page cache.
    Mapped(Mapping),
    /// An owned aligned buffer filled with `read`.
    Heap(AlignedBuf),
}

impl Bytes {
    /// Maps or reads `file` whole.
    pub fn load(mut file: File, len: usize) -> io::Result<Bytes> {
        match Mapping::map_file(&file, len)? {
            Some(map) => Ok(Bytes::Mapped(map)),
            None => Ok(Bytes::Heap(AlignedBuf::read_from(&mut file, len)?)),
        }
    }

    /// The backing bytes. The base pointer is always 8-byte aligned.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Bytes::Mapped(m) => m.as_slice(),
            Bytes::Heap(b) => b.as_slice(),
        }
    }

    /// True when the bytes are a kernel mapping rather than a heap copy.
    pub fn is_mapped(&self) -> bool {
        matches!(self, Bytes::Mapped(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("subgraph-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut f = File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        path
    }

    #[test]
    fn mapping_reads_back_the_file() {
        let contents: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = temp_file("map.bin", &contents);
        let file = File::open(&path).unwrap();
        let bytes = Bytes::load(file, contents.len()).unwrap();
        assert_eq!(bytes.as_slice(), &contents[..]);
        assert_eq!(bytes.as_slice().as_ptr() as usize % 8, 0);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn linux_x86_64_actually_maps() {
        let path = temp_file("mapped.bin", b"hello mapping");
        let file = File::open(&path).unwrap();
        let bytes = Bytes::load(file, 13).unwrap();
        assert!(bytes.is_mapped());
        assert_eq!(bytes.as_slice(), b"hello mapping");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn aligned_buf_handles_odd_lengths() {
        for len in [1usize, 7, 8, 9, 4097] {
            let contents: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            let path = temp_file(&format!("odd{len}.bin"), &contents);
            let mut file = File::open(&path).unwrap();
            let buf = AlignedBuf::read_from(&mut file, len).unwrap();
            assert_eq!(buf.as_slice(), &contents[..]);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn aligned_buf_rejects_a_growing_file() {
        let path = temp_file("grown.bin", b"0123456789");
        let mut file = File::open(&path).unwrap();
        // Claim the file is shorter than it is: the trailing probe must trip.
        assert!(AlignedBuf::read_from(&mut file, 5).is_err());
        std::fs::remove_file(&path).ok();
    }
}
