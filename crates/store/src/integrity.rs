//! Row and file integrity primitives: CRC32 checksums and
//! crash-atomic file replacement.
//!
//! Both are deliberately dependency-free — the checksum is the
//! table-driven CRC-32/ISO-HDLC (the zlib/PNG polynomial, reflected
//! 0xEDB88320), and atomic replacement is the classic
//! tmp-in-same-directory + fsync + rename + fsync-parent sequence, so
//! a crash at any instruction leaves either the old file or the new
//! file, never a torn mixture.

/// CRC-32/ISO-HDLC, crash-atomic replacement and the line-log rule
/// live in `musa-fault` (atomic replacement fires a failpoint), below
/// the profile recorder; the store re-exports them so every byte on
/// disk — rows, exports, profiles — is sealed and replaced by one
/// implementation.
pub use musa_fault::integrity::{
    atomic_write, crc32, read_log, scan, seal_line, unseal_line, BadLine, Scan, Verdict,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value, plus edges.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_ne!(crc32(b"musa"), crc32(b"musb"));
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("musa-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.csv");
        atomic_write(&path, b"first", "export.write").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second", "export.write").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp litter.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "temp files left behind: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
