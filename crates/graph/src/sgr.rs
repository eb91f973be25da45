//! `.sgr` — the versioned binary container for data graphs.
//!
//! Text edge lists are how snapshots arrive, but parsing one costs a integer
//! decode per endpoint plus the full CSR build on every run. The `.sgr`
//! format stores what [`crate::DataGraph`] actually holds in memory — the
//! canonical edge list and the sorted CSR — in little-endian, 8-byte-aligned
//! sections, so the loader can `mmap` the file and *borrow* all three arrays
//! from the mapping without decoding anything (see [`crate::mmap`]). Loading
//! becomes a handful of header checks plus page faults on first touch.
//!
//! ## Layout (version 1)
//!
//! ```text
//! offset  size  field
//!      0     8  magic "SGRAPH\r\n" (the CRLF trips text-mode corruption)
//!      8     4  version        u32 = 1
//!     12     4  endianness tag u32 = 0x01020304 (reads back-to-front on a
//!                               big-endian writer, which the loader rejects)
//!     16     4  flags          u32 = 0 (reserved)
//!     20     4  reserved       u32 = 0
//!     24     8  num_nodes  n   u64
//!     32     8  num_edges  m   u64
//!     40     8  offsets   section start (= 64 in version 1)
//!     48     8  adjacency section start
//!     56     8  edges     section start
//!     64  (n+1)*8  CSR offsets, u64 each   (offsets[0] = 0, offsets[n] = 2m)
//!      …   2m*4   CSR adjacency, u32 node ids, each run sorted
//!      …    m*8   canonical edge list, (lo, hi) u32 pairs, sorted
//! ```
//!
//! Every section start is a multiple of 8 (the sizes make that automatic,
//! and the loader re-checks), so casting a page-aligned mapping to `&[u64]`
//! / `&[u32]` / `&[Edge]` is alignment-safe.
//!
//! ## Trust model
//!
//! The loader fully validates the header and section geometry (bounds,
//! alignment, exact file size) and the two O(1) CSR anchors
//! (`offsets[0] == 0`, `offsets[n] == 2m`). It does *not* re-verify the
//! O(n + m) invariants (monotone offsets, sorted runs, canonical edges):
//! a file with a valid header but corrupted section *contents* produces
//! wrong answers or index panics, never memory unsafety — all section access
//! is through bounds-checked slices.

use crate::graph::DataGraph;
use crate::mmap::Bytes;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First eight bytes of every `.sgr` file.
pub const MAGIC: [u8; 8] = *b"SGRAPH\r\n";
/// Current (and only) format version.
pub const VERSION: u32 = 1;
/// Value of the endianness tag as written by a little-endian writer.
const ENDIAN_TAG: u32 = 0x0102_0304;
/// Size of the fixed header that precedes the sections.
const HEADER_LEN: u64 = 64;

/// Why a `.sgr` file could not be written or loaded.
#[derive(Debug)]
pub enum SgrError {
    /// Underlying I/O failure; names the file when known.
    Io {
        /// The file involved, if known.
        path: Option<PathBuf>,
        /// The underlying error.
        source: io::Error,
    },
    /// The file ends before the data its header promises.
    Truncated {
        /// Bytes the header-derived layout requires.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The file does not start with the `.sgr` magic.
    BadMagic,
    /// The format version is one this reader does not speak.
    BadVersion {
        /// The version the file claims.
        found: u32,
    },
    /// The endianness tag reads back-to-front: written on a big-endian
    /// machine by a non-conforming writer.
    BadEndianness,
    /// The header is internally inconsistent (bad section geometry, broken
    /// CSR anchors, unsupported flags, trailing bytes…).
    Corrupt(String),
}

impl std::fmt::Display for SgrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SgrError::Io {
                path: Some(path),
                source,
            } => write!(f, "cannot read {}: {source}", path.display()),
            SgrError::Io { path: None, source } => write!(f, "i/o error: {source}"),
            SgrError::Truncated { expected, actual } => write!(
                f,
                "truncated .sgr file: header promises {expected} bytes, found {actual}"
            ),
            SgrError::BadMagic => write!(f, "not a .sgr file (bad magic)"),
            SgrError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported .sgr version {found} (reader speaks {VERSION})"
                )
            }
            SgrError::BadEndianness => {
                write!(
                    f,
                    "big-endian .sgr file; this reader only accepts little-endian"
                )
            }
            SgrError::Corrupt(what) => write!(f, "corrupt .sgr file: {what}"),
        }
    }
}

impl std::error::Error for SgrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SgrError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for SgrError {
    fn from(source: io::Error) -> Self {
        SgrError::Io { path: None, source }
    }
}

impl SgrError {
    fn with_path(self, path: &Path) -> Self {
        match self {
            SgrError::Io { path: None, source } => SgrError::Io {
                path: Some(path.to_path_buf()),
                source,
            },
            other => other,
        }
    }
}

/// Reinterprets a typed slice as its raw bytes (always safe for the plain-
/// old-data section types; on a little-endian target the bytes are already
/// the on-disk representation).
#[cfg(target_endian = "little")]
fn section_bytes<T: Copy>(s: &[T]) -> &[u8] {
    // SAFETY: `s` covers `size_of_val(s)` initialised bytes; `T` is one of the
    // padding-free section types (`u64`, `NodeId`, `Edge`), u8 has no
    // alignment, and the result borrows `s`.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const u8, std::mem::size_of_val(s)) }
}

/// Writes `graph` in `.sgr` form. The writer should be buffered; the three
/// sections are emitted as single bulk writes on little-endian targets.
pub fn write_sgr<W: Write>(graph: &DataGraph, mut writer: W) -> io::Result<()> {
    let n = graph.num_nodes() as u64;
    let m = graph.num_edges() as u64;
    let offsets_start = HEADER_LEN;
    let adjacency_start = offsets_start + (n + 1) * 8;
    let edges_start = adjacency_start + 2 * m * 4;

    let mut header = [0u8; HEADER_LEN as usize];
    header[0..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&ENDIAN_TAG.to_le_bytes());
    // flags and reserved stay zero.
    header[24..32].copy_from_slice(&n.to_le_bytes());
    header[32..40].copy_from_slice(&m.to_le_bytes());
    header[40..48].copy_from_slice(&offsets_start.to_le_bytes());
    header[48..56].copy_from_slice(&adjacency_start.to_le_bytes());
    header[56..64].copy_from_slice(&edges_start.to_le_bytes());
    writer.write_all(&header)?;

    #[cfg(target_endian = "little")]
    {
        writer.write_all(section_bytes(graph.offsets()))?;
        writer.write_all(section_bytes(graph.adjacency()))?;
        writer.write_all(section_bytes(graph.edges()))?;
    }
    #[cfg(not(target_endian = "little"))]
    {
        for &o in graph.offsets() {
            writer.write_all(&o.to_le_bytes())?;
        }
        for &a in graph.adjacency() {
            writer.write_all(&a.to_le_bytes())?;
        }
        for e in graph.edges() {
            writer.write_all(&e.lo().to_le_bytes())?;
            writer.write_all(&e.hi().to_le_bytes())?;
        }
    }
    Ok(())
}

/// Writes `graph` to `path` in `.sgr` form. I/O failures name the path.
pub fn write_sgr_file<P: AsRef<Path>>(graph: &DataGraph, path: P) -> Result<(), SgrError> {
    let path = path.as_ref();
    let attach = |e: io::Error| SgrError::from(e).with_path(path);
    let file = File::create(path).map_err(attach)?;
    let mut writer = io::BufWriter::new(file);
    write_sgr(graph, &mut writer).map_err(attach)?;
    writer.flush().map_err(attach)
}

/// True when the file at `path` starts with the `.sgr` magic. Files shorter
/// than the magic are simply "not `.sgr`"; only open/read failures error.
pub fn sniff_sgr<P: AsRef<Path>>(path: P) -> io::Result<bool> {
    let mut file = File::open(path)?;
    let mut head = [0u8; MAGIC.len()];
    let mut filled = 0;
    while filled < head.len() {
        match file.read(&mut head[filled..])? {
            0 => return Ok(false),
            k => filled += k,
        }
    }
    Ok(head == MAGIC)
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("fixed-width field"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("fixed-width field"))
}

/// The validated section geometry of a `.sgr` file.
struct Layout {
    num_nodes: usize,
    offsets: std::ops::Range<usize>,
    adjacency: std::ops::Range<usize>,
    edges: std::ops::Range<usize>,
}

/// Validates the header and section geometry against the actual byte length.
fn validate(bytes: &[u8]) -> Result<Layout, SgrError> {
    let len = bytes.len() as u64;
    if len < HEADER_LEN {
        return Err(SgrError::Truncated {
            expected: HEADER_LEN,
            actual: len,
        });
    }
    if bytes[0..8] != MAGIC {
        return Err(SgrError::BadMagic);
    }
    let endian = read_u32(bytes, 12);
    if endian == ENDIAN_TAG.swap_bytes() {
        return Err(SgrError::BadEndianness);
    }
    if endian != ENDIAN_TAG {
        return Err(SgrError::Corrupt(format!(
            "endianness tag {endian:#010x} is neither byte order"
        )));
    }
    let version = read_u32(bytes, 8);
    if version != VERSION {
        return Err(SgrError::BadVersion { found: version });
    }
    let flags = read_u32(bytes, 16);
    if flags != 0 {
        return Err(SgrError::Corrupt(format!("unsupported flags {flags:#x}")));
    }
    let n = read_u64(bytes, 24);
    let m = read_u64(bytes, 32);
    if n > u64::from(u32::MAX) {
        return Err(SgrError::Corrupt(format!(
            "{n} nodes exceed the 32-bit node-id space"
        )));
    }
    let corrupt = |what: &str| SgrError::Corrupt(what.to_string());
    // Section sizes, with overflow-checked arithmetic: a hostile header must
    // not be able to wrap a bounds check.
    let offsets_len = n
        .checked_add(1)
        .and_then(|c| c.checked_mul(8))
        .ok_or_else(|| corrupt("offsets section size overflows"))?;
    let adjacency_len = m
        .checked_mul(8)
        .ok_or_else(|| corrupt("adjacency section size overflows"))?;
    let edges_len = m
        .checked_mul(8)
        .ok_or_else(|| corrupt("edge section size overflows"))?;
    let offsets_start = read_u64(bytes, 40);
    let adjacency_start = read_u64(bytes, 48);
    let edges_start = read_u64(bytes, 56);
    for (name, start) in [
        ("offsets", offsets_start),
        ("adjacency", adjacency_start),
        ("edges", edges_start),
    ] {
        if start % 8 != 0 {
            return Err(SgrError::Corrupt(format!(
                "{name} section start {start} is not 8-byte aligned"
            )));
        }
    }
    let offsets_end = offsets_start
        .checked_add(offsets_len)
        .ok_or_else(|| corrupt("offsets section end overflows"))?;
    let adjacency_end = adjacency_start
        .checked_add(adjacency_len)
        .ok_or_else(|| corrupt("adjacency section end overflows"))?;
    let edges_end = edges_start
        .checked_add(edges_len)
        .ok_or_else(|| corrupt("edge section end overflows"))?;
    if offsets_start < HEADER_LEN || adjacency_start < offsets_end || edges_start < adjacency_end {
        return Err(corrupt("sections overlap or precede the header"));
    }
    if edges_end > len {
        return Err(SgrError::Truncated {
            expected: edges_end,
            actual: len,
        });
    }
    if edges_end < len {
        return Err(SgrError::Corrupt(format!(
            "{} trailing bytes after the edge section",
            len - edges_end
        )));
    }
    // O(1) CSR anchors: catches files whose sections were shuffled or zeroed
    // without paying an O(n) scan on the load path.
    let first_offset = read_u64(bytes, offsets_start as usize);
    let last_offset = read_u64(bytes, (offsets_end - 8) as usize);
    if first_offset != 0 || last_offset != 2 * m {
        return Err(corrupt("CSR offset anchors do not match the edge count"));
    }
    Ok(Layout {
        num_nodes: n as usize,
        offsets: offsets_start as usize..offsets_end as usize,
        adjacency: adjacency_start as usize..adjacency_end as usize,
        edges: edges_start as usize..edges_end as usize,
    })
}

/// Loads a `.sgr` file, borrowing the graph's arrays from a file mapping
/// where the platform supports it (an aligned heap read elsewhere).
pub fn load_sgr_file<P: AsRef<Path>>(path: P) -> Result<DataGraph, SgrError> {
    let path = path.as_ref();
    let attach = |e: SgrError| e.with_path(path);
    let file = File::open(path).map_err(SgrError::from).map_err(attach)?;
    let len = file
        .metadata()
        .map_err(SgrError::from)
        .map_err(attach)?
        .len();
    if len > usize::MAX as u64 {
        return Err(SgrError::Corrupt("file exceeds the address space".into()));
    }
    let bytes = Bytes::load(file, len as usize)
        .map_err(SgrError::from)
        .map_err(attach)?;
    let layout = validate(bytes.as_slice())?;
    #[cfg(target_endian = "little")]
    {
        Ok(DataGraph::from_mapped(
            layout.num_nodes,
            Arc::new(bytes),
            layout.offsets,
            layout.adjacency,
            layout.edges,
        ))
    }
    #[cfg(not(target_endian = "little"))]
    {
        // Big-endian hosts decode the little-endian sections into an owned
        // graph; correctness over zero-copy on platforms the repo never runs
        // benchmarks on.
        let data = bytes.as_slice();
        let edge_bytes = &data[layout.edges];
        let mut edges = Vec::with_capacity(edge_bytes.len() / 8);
        for pair in edge_bytes.chunks_exact(8) {
            let lo = u32::from_le_bytes(pair[0..4].try_into().unwrap());
            let hi = u32::from_le_bytes(pair[4..8].try_into().unwrap());
            edges.push(crate::graph::Edge::new(lo, hi));
        }
        let _ = Arc::new(bytes);
        Ok(DataGraph::from_parts(layout.num_nodes, edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("subgraph-sgr-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn assert_same_graph(a: &DataGraph, b: &DataGraph) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.edges(), b.edges());
        for v in a.nodes() {
            assert_eq!(a.neighbors(v), b.neighbors(v), "node {v}");
        }
    }

    #[test]
    fn round_trips_a_random_graph() {
        let g = generators::gnm(200, 600, 42);
        let path = temp_path("roundtrip.sgr");
        write_sgr_file(&g, &path).unwrap();
        let loaded = load_sgr_file(&path).unwrap();
        assert_same_graph(&g, &loaded);
        assert!(loaded.has_edge(g.edges()[0].lo(), g.edges()[0].hi()));
        std::fs::remove_file(&path).ok();
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn loaded_graphs_borrow_from_the_mapping() {
        let g = generators::gnm(50, 120, 7);
        let path = temp_path("mapped.sgr");
        write_sgr_file(&g, &path).unwrap();
        let loaded = load_sgr_file(&path).unwrap();
        assert!(loaded.is_mapped());
        // Clones share the mapping; dropping the original keeps it alive.
        let clone = loaded.clone();
        drop(loaded);
        assert_same_graph(&g, &clone);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn round_trips_the_empty_graph() {
        let g = DataGraph::from_edges(0, []);
        let path = temp_path("empty.sgr");
        write_sgr_file(&g, &path).unwrap();
        let loaded = load_sgr_file(&path).unwrap();
        assert_eq!(loaded.num_nodes(), 0);
        assert_eq!(loaded.num_edges(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_size_matches_the_layout_formula() {
        let g = generators::gnm(30, 80, 3);
        let mut buf = Vec::new();
        write_sgr(&g, &mut buf).unwrap();
        let n = g.num_nodes() as u64;
        let m = g.num_edges() as u64;
        assert_eq!(buf.len() as u64, 64 + (n + 1) * 8 + 2 * m * 4 + m * 8);
    }

    fn written_bytes(g: &DataGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_sgr(g, &mut buf).unwrap();
        buf
    }

    fn load_bytes(name: &str, bytes: &[u8]) -> Result<DataGraph, SgrError> {
        let path = temp_path(name);
        std::fs::write(&path, bytes).unwrap();
        let out = load_sgr_file(&path);
        std::fs::remove_file(&path).ok();
        out
    }

    #[test]
    fn truncated_files_are_rejected_with_both_sizes() {
        let bytes = written_bytes(&generators::gnm(20, 40, 1));
        for cut in [0, 7, 63, 64, bytes.len() - 1] {
            match load_bytes("trunc.sgr", &bytes[..cut]) {
                Err(SgrError::Truncated { expected, actual }) => {
                    assert_eq!(actual, cut as u64);
                    assert!(expected > actual);
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = written_bytes(&generators::gnm(10, 20, 1));
        bytes[0] ^= 0xff;
        assert!(matches!(
            load_bytes("magic.sgr", &bytes),
            Err(SgrError::BadMagic)
        ));
        // A text edge list is not an .sgr file either.
        assert!(matches!(
            load_bytes(
                "text.sgr",
                b"# nodes=2 edges=1\n0 1\nmore text to pass the header length check........."
            ),
            Err(SgrError::BadMagic)
        ));
    }

    #[test]
    fn future_versions_are_rejected_by_number() {
        let mut bytes = written_bytes(&generators::gnm(10, 20, 1));
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        match load_bytes("version.sgr", &bytes) {
            Err(SgrError::BadVersion { found }) => assert_eq!(found, 2),
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn byte_swapped_endianness_tag_is_rejected() {
        let mut bytes = written_bytes(&generators::gnm(10, 20, 1));
        let tag = u32::from_le_bytes(bytes[12..16].try_into().unwrap()).swap_bytes();
        bytes[12..16].copy_from_slice(&tag.to_le_bytes());
        assert!(matches!(
            load_bytes("endian.sgr", &bytes),
            Err(SgrError::BadEndianness)
        ));
    }

    #[test]
    fn nonzero_flags_and_trailing_bytes_are_corrupt() {
        let good = written_bytes(&generators::gnm(10, 20, 1));

        let mut flagged = good.clone();
        flagged[16] = 1;
        assert!(matches!(
            load_bytes("flags.sgr", &flagged),
            Err(SgrError::Corrupt(_))
        ));

        let mut trailing = good.clone();
        trailing.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            load_bytes("trailing.sgr", &trailing),
            Err(SgrError::Corrupt(_))
        ));
    }

    #[test]
    fn broken_csr_anchors_are_corrupt() {
        let mut bytes = written_bytes(&generators::gnm(10, 20, 1));
        // offsets[0] lives right after the header; make it non-zero.
        bytes[64] = 1;
        assert!(matches!(
            load_bytes("anchor.sgr", &bytes),
            Err(SgrError::Corrupt(_))
        ));
    }

    #[test]
    fn hostile_section_geometry_cannot_wrap_the_bounds_checks() {
        let mut bytes = written_bytes(&generators::gnm(10, 20, 1));
        // A node count chosen so (n + 1) * 8 overflows u64.
        bytes[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            load_bytes("overflow.sgr", &bytes),
            Err(SgrError::Corrupt(_))
        ));

        let mut misaligned = written_bytes(&generators::gnm(10, 20, 1));
        misaligned[40..48].copy_from_slice(&65u64.to_le_bytes());
        assert!(matches!(
            load_bytes("misaligned.sgr", &misaligned),
            Err(SgrError::Corrupt(_))
        ));
    }

    #[test]
    fn errors_name_the_file() {
        let err = load_sgr_file("/no/such/graph.sgr").unwrap_err();
        assert!(err.to_string().contains("/no/such/graph.sgr"));
    }

    #[test]
    fn sniffing_detects_sgr_and_text() {
        let g = generators::gnm(10, 20, 1);
        let sgr_path = temp_path("sniff.sgr");
        write_sgr_file(&g, &sgr_path).unwrap();
        assert!(sniff_sgr(&sgr_path).unwrap());

        let text_path = temp_path("sniff.txt");
        std::fs::write(&text_path, "0 1\n1 2\n").unwrap();
        assert!(!sniff_sgr(&text_path).unwrap());

        let short_path = temp_path("sniff.short");
        std::fs::write(&short_path, "ab").unwrap();
        assert!(!sniff_sgr(&short_path).unwrap());

        std::fs::remove_file(&sgr_path).ok();
        std::fs::remove_file(&text_path).ok();
        std::fs::remove_file(&short_path).ok();
    }

    #[test]
    fn forward_index_builds_on_a_loaded_graph() {
        let g = generators::power_law(80, 200, 2.5, 9);
        let path = temp_path("forward.sgr");
        write_sgr_file(&g, &path).unwrap();
        let loaded = load_sgr_file(&path).unwrap();
        let forward = loaded.forward();
        let total: usize = (0..forward.num_nodes() as u32)
            .map(|r| forward.later(r).len())
            .sum();
        assert_eq!(total, loaded.num_edges());
        std::fs::remove_file(&path).ok();
    }
}
