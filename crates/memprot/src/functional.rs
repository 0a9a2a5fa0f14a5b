//! Functional model of GuardNN-protected DRAM.
//!
//! Where the sibling modules model *performance*, this module models
//! *behaviour*: a byte-accurate external memory that stores only ciphertext
//! (AES-CTR under the GuardNN counter layout), keeps one CMAC per chunk
//! binding (ciphertext, address, VN), and exposes the raw ciphertext plus
//! tamper/replay hooks so adversary experiments can run against it.
//!
//! # Example
//!
//! ```
//! use guardnn_memprot::functional::ProtectedMemory;
//!
//! let mut mem = ProtectedMemory::new(&[7u8; 16], Some([9u8; 16]));
//! mem.write(0x1000, b"secret weights!!", 42);
//! assert_eq!(mem.read(0x1000, 16, 42).unwrap(), b"secret weights!!");
//! assert_ne!(mem.raw(0x1000, 16), b"secret weights!!"); // DRAM holds ciphertext
//! ```

use guardnn_crypto::cmac::Cmac;
use guardnn_crypto::ctr::AesCtr;
use std::collections::HashMap;

/// Chunk granularity of integrity MACs (the prototype accelerator writes
/// 512-byte chunks).
pub const CHUNK_BYTES: u64 = 512;

/// Error returned when integrity verification fails on a read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyChunkError {
    /// Address of the chunk whose MAC did not verify.
    pub chunk_addr: u64,
}

impl std::fmt::Display for VerifyChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "integrity verification failed for chunk at {:#x}",
            self.chunk_addr
        )
    }
}

impl std::error::Error for VerifyChunkError {}

/// A protected external memory: ciphertext storage plus per-chunk MACs.
pub struct ProtectedMemory {
    ctr: AesCtr,
    cmac: Option<Cmac>,
    /// Ciphertext bytes, sparse by 4 KiB page.
    pages: HashMap<u64, Box<[u8; 4096]>>,
    /// MAC per chunk address (lives in DRAM conceptually; the adversary can
    /// overwrite it via [`ProtectedMemory::tamper_mac`]).
    macs: HashMap<u64, [u8; 16]>,
}

impl std::fmt::Debug for ProtectedMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtectedMemory")
            .field("pages", &self.pages.len())
            .field("macs", &self.macs.len())
            .field("integrity", &self.cmac.is_some())
            .finish()
    }
}

impl ProtectedMemory {
    /// Creates a protected memory with encryption key `k_menc` and, when
    /// `k_mac` is provided, integrity verification.
    pub fn new(k_menc: &[u8; 16], k_mac: Option<[u8; 16]>) -> Self {
        Self {
            ctr: AesCtr::new(k_menc),
            cmac: k_mac.map(|k| Cmac::new(&k)),
            pages: HashMap::new(),
            macs: HashMap::new(),
        }
    }

    /// Whether integrity verification is enabled.
    pub fn verifies_integrity(&self) -> bool {
        self.cmac.is_some()
    }

    /// Number of 4 KiB DRAM pages that have been touched — the physical
    /// footprint an observer can measure. Used by side-channel tests to
    /// show the footprint is value-independent.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8; 4096] {
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0u8; 4096]))
    }

    fn raw_write(&mut self, addr: u64, data: &[u8]) {
        let mut offset = 0usize;
        while offset < data.len() {
            let a = addr + offset as u64;
            let page = a / 4096;
            let in_page = (a % 4096) as usize;
            let take = data.len().min(offset + 4096 - in_page) - offset;
            self.page_mut(page)[in_page..in_page + take]
                .copy_from_slice(&data[offset..offset + take]);
            offset += take;
        }
    }

    /// Raw ciphertext view `[addr, addr + len)` — what a physical attacker
    /// probing the DRAM bus sees. Copied one page segment at a time;
    /// never-written pages read as zeros.
    pub fn raw(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let a = addr + out.len() as u64;
            let in_page = (a % 4096) as usize;
            let take = (len - out.len()).min(4096 - in_page);
            match self.pages.get(&(a / 4096)) {
                Some(page) => out.extend_from_slice(&page[in_page..in_page + take]),
                None => out.resize(out.len() + take, 0),
            }
        }
        out
    }

    /// Encrypts `plaintext` with version `vn` and stores it at `addr`,
    /// recomputing the MAC of every chunk it touches.
    ///
    /// An empty `plaintext` is a no-op: it touches no chunk and no MAC.
    ///
    /// # Panics
    ///
    /// Panics unless the write is 16-byte aligned (the AES-CTR block
    /// granularity the engine operates at).
    pub fn write(&mut self, addr: u64, plaintext: &[u8], vn: u64) {
        assert!(addr.is_multiple_of(16), "writes must be 16-byte aligned");
        if plaintext.is_empty() {
            return;
        }
        let mut ct = plaintext.to_vec();
        self.ctr.apply_range(addr, vn, &mut ct);
        self.raw_write(addr, &ct);
        if self.cmac.is_some() {
            let first_chunk = addr / CHUNK_BYTES;
            let last_chunk = (addr + plaintext.len() as u64 - 1) / CHUNK_BYTES;
            for chunk in first_chunk..=last_chunk {
                self.refresh_mac(chunk * CHUNK_BYTES, vn);
            }
        }
    }

    fn mac_message(&self, chunk_addr: u64, vn: u64) -> Vec<u8> {
        let mut msg = self.raw(chunk_addr, CHUNK_BYTES as usize);
        msg.extend_from_slice(&chunk_addr.to_be_bytes());
        msg.extend_from_slice(&vn.to_be_bytes());
        msg
    }

    fn refresh_mac(&mut self, chunk_addr: u64, vn: u64) {
        let msg = self.mac_message(chunk_addr, vn);
        // lint:allow(panic-discipline) — refresh_mac is only reached on the integrity-enabled path
        let mac = self.cmac.as_ref().expect("integrity enabled").compute(&msg);
        self.macs.insert(chunk_addr, mac);
    }

    /// Reads and decrypts `[addr, addr + len)` with version `vn`,
    /// verifying chunk MACs when integrity is enabled. An empty read
    /// (`len == 0`) covers no chunk and returns `Ok(vec![])`.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyChunkError`] if any covered chunk's MAC does not
    /// match (tampered data, tampered MAC, or replayed stale content).
    ///
    /// # Panics
    ///
    /// Panics unless the read is 16-byte aligned.
    pub fn read(&self, addr: u64, len: usize, vn: u64) -> Result<Vec<u8>, VerifyChunkError> {
        assert!(addr.is_multiple_of(16), "reads must be 16-byte aligned");
        if len == 0 {
            return Ok(Vec::new());
        }
        if let Some(cmac) = &self.cmac {
            let first_chunk = addr / CHUNK_BYTES;
            let last_chunk = (addr + len as u64 - 1) / CHUNK_BYTES;
            for chunk in first_chunk..=last_chunk {
                let chunk_addr = chunk * CHUNK_BYTES;
                let msg = self.mac_message(chunk_addr, vn);
                let stored = self.macs.get(&chunk_addr).copied().unwrap_or([0u8; 16]);
                if !cmac.verify(&msg, &stored) {
                    return Err(VerifyChunkError { chunk_addr });
                }
            }
        }
        let mut data = self.raw(addr, len);
        self.ctr.apply_range(addr, vn, &mut data);
        Ok(data)
    }

    /// Adversary hook: flip bits in the stored ciphertext.
    pub fn tamper(&mut self, addr: u64, xor_mask: u8) {
        let page = addr / 4096;
        let in_page = (addr % 4096) as usize;
        self.page_mut(page)[in_page] ^= xor_mask;
    }

    /// Adversary hook: overwrite a chunk's stored MAC.
    pub fn tamper_mac(&mut self, chunk_addr: u64, mac: [u8; 16]) {
        self.macs.insert(chunk_addr, mac);
    }

    /// Adversary hook: snapshot a chunk (ciphertext + MAC) for a replay.
    pub fn snapshot_chunk(&self, chunk_addr: u64) -> (Vec<u8>, Option<[u8; 16]>) {
        (
            self.raw(chunk_addr, CHUNK_BYTES as usize),
            self.macs.get(&chunk_addr).copied(),
        )
    }

    /// Adversary hook: restore a previously snapshotted chunk (the classic
    /// replay attack).
    pub fn replay_chunk(&mut self, chunk_addr: u64, snapshot: (Vec<u8>, Option<[u8; 16]>)) {
        self.raw_write(chunk_addr, &snapshot.0);
        match snapshot.1 {
            Some(mac) => {
                self.macs.insert(chunk_addr, mac);
            }
            None => {
                self.macs.remove(&chunk_addr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-byte raw view: the oracle for the page-slice
    /// [`ProtectedMemory::raw`].
    fn raw_bytewise(mem: &ProtectedMemory, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        for i in 0..len as u64 {
            let a = addr + i;
            let byte = mem
                .pages
                .get(&(a / 4096))
                .map_or(0, |p| p[(a % 4096) as usize]);
            out.push(byte);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each generated word is split into an address (low half) and a
        /// length (high half). Writes land in pages 0..6 of a 12-page
        /// window, so reads cross page boundaries over written and
        /// never-written pages alike.
        #[test]
        fn raw_matches_bytewise_oracle(
            writes in prop::collection::vec(any::<u64>(), 0..6),
            ranges in prop::collection::vec(any::<u64>(), 1..12),
            integrity in any::<bool>(),
        ) {
            let split = |word: u64, addr_span: u64| {
                ((word & 0xffff_ffff) % addr_span, ((word >> 32) % (3 * 4096)) as usize)
            };
            let mut mem = ProtectedMemory::new(&[3u8; 16], integrity.then_some([4u8; 16]));
            for (i, &word) in writes.iter().enumerate() {
                let (block, len) = split(word, 6 * 256);
                let data: Vec<u8> = (0..len).map(|j| (i + j) as u8).collect();
                mem.write(16 * block, &data, i as u64);
            }
            for &word in &ranges {
                let (addr, len) = split(word, 12 * 4096);
                prop_assert_eq!(mem.raw(addr, len), raw_bytewise(&mem, addr, len));
                prop_assert!(mem.raw(addr, 0).is_empty());
            }
        }
    }

    #[test]
    fn zero_length_read_and_write_touch_nothing() {
        // (addr, integrity): address 0, a chunk-aligned address and a
        // mid-chunk address, each with integrity on and off.
        let rows = [
            (0u64, true),
            (0, false),
            (4 * CHUNK_BYTES, true),
            (4 * CHUNK_BYTES, false),
            (4 * CHUNK_BYTES + 48, true),
            (4 * CHUNK_BYTES + 48, false),
        ];
        for (addr, integrity) in rows {
            let mut mem = ProtectedMemory::new(&[1u8; 16], integrity.then_some([2u8; 16]));
            let chunk = addr - addr % CHUNK_BYTES;
            mem.write(chunk, &[0x5A; CHUNK_BYTES as usize], 7);
            let before = (mem.snapshot_chunk(chunk), mem.page_count(), mem.macs.len());

            assert_eq!(mem.read(addr, 0, 7), Ok(vec![]), "read at {addr:#x}");
            assert_eq!(mem.read(addr, 0, 8), Ok(vec![]), "read at {addr:#x}");
            mem.write(addr, &[], 8);
            let after = (mem.snapshot_chunk(chunk), mem.page_count(), mem.macs.len());
            assert_eq!(before, after, "empty write at {addr:#x} changed memory");
            // The chunk still verifies under its own VN, not the empty write's.
            assert_eq!(
                mem.read(chunk, CHUNK_BYTES as usize, 7),
                Ok(vec![0x5A; CHUNK_BYTES as usize]),
                "chunk at {chunk:#x}"
            );
            if integrity {
                assert!(mem.read(chunk, CHUNK_BYTES as usize, 8).is_err());
            }
        }
    }

    fn mem_ci() -> ProtectedMemory {
        ProtectedMemory::new(&[1u8; 16], Some([2u8; 16]))
    }

    fn mem_c() -> ProtectedMemory {
        ProtectedMemory::new(&[1u8; 16], None)
    }

    #[test]
    fn round_trip() {
        let mut mem = mem_ci();
        let data: Vec<u8> = (0..=255).cycle().take(2048).collect();
        mem.write(0x4000, &data, 3);
        assert_eq!(mem.read(0x4000, 2048, 3).unwrap(), data);
    }

    #[test]
    fn dram_never_holds_plaintext() {
        let mut mem = mem_c();
        let secret = b"private user input image bytes!!";
        mem.write(0, secret, 1);
        let raw = mem.raw(0, secret.len());
        assert_ne!(raw.as_slice(), secret.as_slice());
        // No window of the ciphertext equals the plaintext.
        assert!(!raw.windows(8).any(|w| secret.windows(8).any(|s| s == w)));
    }

    #[test]
    fn wrong_vn_garbles_but_never_reveals() {
        let mut mem = mem_c();
        let secret = b"confidential!!!!";
        mem.write(0, secret, 5);
        let garbled = mem.read(0, 16, 6).unwrap();
        assert_ne!(
            garbled.as_slice(),
            secret.as_slice(),
            "wrong CTR_F,R must not decrypt"
        );
    }

    #[test]
    fn tamper_detected_with_integrity() {
        let mut mem = mem_ci();
        mem.write(0, &[0xAA; 512], 1);
        mem.tamper(100, 0x01);
        let err = mem.read(0, 512, 1).unwrap_err();
        assert_eq!(err.chunk_addr, 0);
    }

    #[test]
    fn tampered_mac_detected() {
        let mut mem = mem_ci();
        mem.write(0, &[0xAA; 512], 1);
        mem.tamper_mac(0, [0u8; 16]);
        assert!(mem.read(0, 512, 1).is_err());
    }

    #[test]
    fn replay_detected_with_integrity() {
        let mut mem = mem_ci();
        mem.write(0, &[0x11; 512], 1);
        let old = mem.snapshot_chunk(0);
        // The accelerator overwrites the chunk under a newer VN.
        mem.write(0, &[0x22; 512], 2);
        // Adversary replays the stale ciphertext *and* its matching MAC.
        mem.replay_chunk(0, old);
        // The accelerator reads with the current VN → MAC mismatch.
        assert!(mem.read(0, 512, 2).is_err(), "replay must be detected");
    }

    #[test]
    fn confidentiality_only_misses_tampering_but_stays_garbled() {
        let mut mem = mem_c();
        let secret = b"weights weights!";
        mem.write(0, secret, 1);
        mem.tamper(0, 0xFF);
        // No integrity → read "succeeds" ...
        let data = mem.read(0, 16, 1).unwrap();
        // ... but yields corrupted plaintext, never the adversary's choice
        // of plaintext (CTR tamper flips the same bits in plaintext).
        assert_ne!(data.as_slice(), secret.as_slice());
    }

    #[test]
    fn distinct_addresses_distinct_ciphertext() {
        let mut mem = mem_c();
        mem.write(0, &[0x55; 16], 1);
        mem.write(4096, &[0x55; 16], 1);
        assert_ne!(
            mem.raw(0, 16),
            mem.raw(4096, 16),
            "address is in the counter block"
        );
    }

    #[test]
    fn cross_page_write() {
        let mut mem = mem_ci();
        let data = vec![0x77u8; 8192];
        mem.write(4096 - 512, &data, 9);
        assert_eq!(mem.read(4096 - 512, 8192, 9).unwrap(), data);
    }

    #[test]
    fn unwritten_memory_reads_fail_integrity() {
        let mem = mem_ci();
        assert!(mem.read(0x8000, 512, 0).is_err(), "no MAC on record");
    }
}
