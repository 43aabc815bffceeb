//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) over byte slices — the checksum in
//! every log-record frame. Slice-by-16: sixteen bytes per step through sixteen
//! tables built at compile time, so the crate stays dependency-free. (Hardware CRC
//! is not an option for this polynomial: SSE4.2's instruction is CRC-32C.)

/// `TABLES[0]` is the classic byte-at-a-time table for the reflected IEEE polynomial;
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let mut block: [u8; 16] = block.try_into().expect("16-byte chunk");
        for (byte, running) in block.iter_mut().zip(crc.to_le_bytes()) {
            *byte ^= running;
        }
        // Byte `i` of the block is followed by `15 - i` more bytes of it.
        crc = (0..16).fold(0, |acc, i| acc ^ TABLES[15 - i][block[i] as usize]);
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_standard_check_value() {
        // The canonical CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn detects_single_bit_flips() {
        let clean = b"the quick brown fox".to_vec();
        let reference = crc32(&clean);
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut flipped = clean.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&flipped),
                    reference,
                    "flip at {byte}:{bit} undetected"
                );
            }
        }
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time definition the sliced loop must equal.
    fn bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |crc, &byte| {
            (0..8).fold(crc ^ u32::from(byte), |crc, _| {
                (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg())
            })
        })
    }

    #[test]
    fn sliced_equals_bytewise_at_every_small_length_and_alignment() {
        // (An odd seed leaves the first byte as drawn.)
        let buffer = crate::record::tests::hostile_payload(0x9E37_79B9_7F4A_7C15, 316);
        for start in 0..16 {
            for len in 0..=300 {
                let slice = &buffer[start..start + len];
                assert_eq!(crc32(slice), bytewise(slice), "start {start}, len {len}");
            }
        }
    }
}
