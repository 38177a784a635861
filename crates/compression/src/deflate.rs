//! A DEFLATE-style lossless codec: LZ77 with hash-chain matching followed by
//! canonical Huffman coding of literal/length and distance symbols.
//!
//! This is the repo's stand-in for gzip. The paper (§3.2) gzips the
//! compressed representations of PMC and Swing "since SZ applies gzip as the
//! final step", and also gzips the raw dataset to obtain the Eq. 3 sizes.
//! gzip's payload *is* DEFLATE; we re-implement the algorithm rather than
//! pulling in a compression dependency (DESIGN.md §1). The container framing
//! is our own (mode byte + length), not RFC 1951 bit-exact, but the
//! compression behaviour — LZ77 window, 3..258 match lengths, Huffman over
//! the DEFLATE alphabets — matches.
//!
//! The match finder's parameters define the output: the hash
//! (`HASH_BITS`), the chain cap (`CHAIN_LIMIT` candidates per position),
//! the 32 KiB window and the greedy policy (take the first longest match on
//! the chain). Every CR in the paper's figures sits on these bytes, so they
//! stay fixed. The finder's speed-ups — rejecting a candidate that cannot
//! beat the current best, comparing eight bytes at a time, a 32 KiB ring for
//! the chain links, packed `u32` tokens, and table lookups for the length
//! and distance symbols — change how fast the same winner is found, never
//! which candidate wins (DESIGN.md §17). A `#[cfg(test)]` copy of the
//! straightforward encoder is the oracle they are tested against.

use std::time::Instant;

use crate::bitstream::{BitReader, BitWriter};
use crate::huffman::{CanonicalCode, HuffmanError};
use crate::reader::ByteReader;

/// Errors from decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeflateError {
    /// The input is shorter than its header claims.
    Truncated,
    /// Unknown mode byte.
    BadMode(u8),
    /// Entropy decoding failed.
    Huffman(HuffmanError),
    /// A back-reference pointed before the start of output.
    BadDistance { dist: usize, have: usize },
    /// Decoded length does not match the header.
    LengthMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for DeflateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeflateError::Truncated => write!(f, "deflate stream truncated"),
            DeflateError::BadMode(m) => write!(f, "unknown deflate mode byte {m}"),
            DeflateError::Huffman(e) => write!(f, "huffman error: {e}"),
            DeflateError::BadDistance { dist, have } => {
                write!(f, "back-reference distance {dist} exceeds output size {have}")
            }
            DeflateError::LengthMismatch { expected, got } => {
                write!(f, "decoded {got} bytes, header said {expected}")
            }
        }
    }
}

impl std::error::Error for DeflateError {}

impl From<HuffmanError> for DeflateError {
    fn from(e: HuffmanError) -> Self {
        DeflateError::Huffman(e)
    }
}

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const HASH_BITS: usize = 15;
const CHAIN_LIMIT: usize = 96;
const EOB: usize = 256;
const NUM_LIT_LEN: usize = 286;
const NUM_DIST: usize = 30;

/// DEFLATE length codes: (symbol - 257) -> (base_length, extra_bits).
const LEN_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// DEFLATE distance codes: symbol -> (base_distance, extra_bits).
const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// `LEN_CODE[len]` is the [`LEN_TABLE`] row of match length `len`: the
/// last row whose base is `≤ len` (entries below `MIN_MATCH` are unused).
const LEN_CODE: [u8; MAX_MATCH + 1] = len_codes();

const fn len_codes() -> [u8; MAX_MATCH + 1] {
    let mut table = [0u8; MAX_MATCH + 1];
    let mut row = 0;
    let mut len = MIN_MATCH;
    while len <= MAX_MATCH {
        while row + 1 < LEN_TABLE.len() && LEN_TABLE[row + 1].0 as usize <= len {
            row += 1;
        }
        table[len] = row as u8;
        len += 1;
    }
    table
}

fn length_symbol(len: usize) -> (usize, u16, u8) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    let i = LEN_CODE[len] as usize;
    (257 + i, LEN_TABLE[i].0, LEN_TABLE[i].1)
}

/// Distance codes come in pairs per power of two: for `x = dist - 1 ≥ 4`
/// with highest set bit `h`, the symbol is `2h` plus the bit below `h`.
fn distance_symbol(dist: usize) -> (usize, u16, u8) {
    debug_assert!((1..=WINDOW).contains(&dist));
    let x = (dist - 1) as u32;
    let sym = if x < 4 {
        x as usize
    } else {
        let h = 31 - x.leading_zeros();
        (2 * h + ((x >> (h - 1)) & 1)) as usize
    };
    (sym, DIST_TABLE[sym].0, DIST_TABLE[sym].1)
}

/// An LZ77 token packed into a `u32`: a literal is its byte value, a match
/// is `len << 16 | dist`. Every match length is ≥ 3, so a token is a match
/// exactly when it is ≥ 2^16, and `dist ≤ 32768` fits the low half.
type Token = u32;

const MATCH_FLOOR: Token = 1 << 16;

fn match_token(len: usize, dist: usize) -> Token {
    ((len as u32) << 16) | dist as u32
}

fn unpack_match(t: Token) -> (usize, usize) {
    ((t >> 16) as usize, (t & 0xFFFF) as usize)
}

/// Empty-chain marker in `head` and `prev`.
const NIL: u32 = u32::MAX;

fn hash(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32)
        .wrapping_mul(506_832_829)
        .wrapping_add((data[i + 1] as u32).wrapping_mul(2_654_435_761))
        .wrapping_add((data[i + 2] as u32).wrapping_mul(2_246_822_519));
    (h >> (32 - HASH_BITS)) as usize
}

fn read_u32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"))
}

/// Whether a candidate at `c` can still beat the best match of `best`
/// bytes at `i`: a longer match agrees with the input at offset `best`
/// (and the bytes before it). Necessary, not sufficient, so skipping the
/// candidates that fail it never changes the winner. Needs
/// `i + best < data.len()`.
fn could_beat(data: &[u8], c: usize, i: usize, best: usize) -> bool {
    if best >= 3 {
        read_u32(data, c + best - 3) == read_u32(data, i + best - 3)
    } else {
        data[c + best] == data[i + best]
    }
}

/// Length of the common prefix of `data[c..]` and `data[i..]`, capped at
/// `limit` (`i + limit ≤ data.len()`, `c < i`). Compares eight bytes at a
/// time: the first differing byte of two little-endian words is the
/// lowest nonzero byte of their XOR.
fn match_len(data: &[u8], c: usize, i: usize, limit: usize) -> usize {
    let mut l = 0;
    while l + 8 <= limit {
        let x = read_u64(data, c + l) ^ read_u64(data, i + l);
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && data[c + l] == data[i + l] {
        l += 1;
    }
    l
}

/// Greedy LZ77 tokenization with hash chains.
///
/// `prev` is a ring of `WINDOW` slots indexed by `pos & (WINDOW - 1)`. The
/// walk at `i` reads `prev[c]` only for candidates with `i - c ≤ WINDOW`;
/// the next position to overwrite that slot is `c + WINDOW ≥ i`, which is
/// not inserted yet, so every read sees the link `c` itself stored. An
/// input shorter than the window gets a power-of-two ring of at least `n`
/// slots, where no two positions share a slot at all. Positions are `u32`:
/// the frame stores the input length as one.
fn tokenize(data: &[u8]) -> Vec<Token> {
    let n = data.len();
    // Literal-heavy inputs produce close to one token per byte, matches
    // far fewer; half-and-half keeps reallocation to one doubling.
    let mut tokens = Vec::with_capacity(n / 2 + 16);
    if n < MIN_MATCH + 1 {
        tokens.extend(data.iter().map(|&b| b as Token));
        return tokens;
    }
    let mut head = vec![NIL; 1 << HASH_BITS];
    // An input shorter than the window needs no more slots than bytes.
    let ring_mask = n.next_power_of_two().min(WINDOW) - 1;
    let mut prev = vec![NIL; ring_mask + 1];
    let insert = |head: &mut [u32], prev: &mut [u32], pos: usize| {
        if pos + MIN_MATCH <= n {
            let h = hash(data, pos);
            prev[pos & ring_mask] = head[h];
            head[h] = pos as u32;
        }
    };
    let mut i = 0;
    while i + MIN_MATCH <= n {
        let h = hash(data, i);
        let mut best_len = 0;
        let mut best_dist = 0;
        let mut cand = head[h];
        let mut chains = 0;
        let limit = (n - i).min(MAX_MATCH);
        while cand != NIL && chains < CHAIN_LIMIT {
            let c = cand as usize;
            let dist = i - c;
            if dist > WINDOW {
                break;
            }
            if could_beat(data, c, i, best_len) {
                let l = match_len(data, c, i, limit);
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l == limit {
                        break;
                    }
                }
            }
            cand = prev[c & ring_mask];
            chains += 1;
        }
        // Insert `i` under the hash the walk just used.
        prev[i & ring_mask] = head[h];
        head[h] = i as u32;
        if best_len >= MIN_MATCH {
            tokens.push(match_token(best_len, best_dist));
            for k in 1..best_len {
                insert(&mut head, &mut prev, i + k);
            }
            i += best_len;
        } else {
            tokens.push(data[i] as Token);
            i += 1;
        }
    }
    // The last bytes are too few to start a match.
    tokens.extend(data[i..].iter().map(|&b| b as Token));
    tokens
}

/// Records one `lossless_seconds{op}` observation when `start` is set,
/// i.e. when telemetry was enabled at the call's start.
fn observe_lossless(start: Option<Instant>, op: &str) {
    if let Some(start) = start {
        telemetry::observe("lossless_seconds", &[("op", op)], telemetry::secs(start.elapsed()));
    }
}

/// Compresses `data`. Falls back to a stored block when entropy coding does
/// not help (e.g. incompressible input).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let start = telemetry::enabled().then(Instant::now);
    let out = encode(data);
    observe_lossless(start, "encode");
    out
}

fn encode(data: &[u8]) -> Vec<u8> {
    let tokens = tokenize(data);

    // Gather symbol frequencies.
    let mut lit_freq = vec![0u64; NUM_LIT_LEN];
    let mut dist_freq = vec![0u64; NUM_DIST];
    for &t in &tokens {
        if t < MATCH_FLOOR {
            lit_freq[t as usize] += 1;
        } else {
            let (len, dist) = unpack_match(t);
            lit_freq[length_symbol(len).0] += 1;
            dist_freq[distance_symbol(dist).0] += 1;
        }
    }
    lit_freq[EOB] += 1;

    let lit_code = CanonicalCode::from_freqs(&lit_freq).expect("EOB guarantees a symbol");
    // Distance alphabet may be empty (no matches) — use a dummy 1-symbol code.
    let dist_code = if dist_freq.iter().any(|&f| f > 0) {
        CanonicalCode::from_freqs(&dist_freq).expect("checked nonzero")
    } else {
        let mut f = vec![0u64; NUM_DIST];
        f[0] = 1;
        CanonicalCode::from_freqs(&f).expect("one symbol")
    };

    // Two 4-bit length tables plus ~9–12 bits per token.
    let mut w = BitWriter::with_capacity((NUM_LIT_LEN + NUM_DIST) * 4 + tokens.len() * 12);
    // Header: code lengths, 4 bits each.
    lit_code.write_lengths4(&mut w);
    dist_code.write_lengths4(&mut w);
    for &t in &tokens {
        if t < MATCH_FLOOR {
            lit_code.encode(t as usize, &mut w);
        } else {
            let (len, dist) = unpack_match(t);
            let (sym, base, extra) = length_symbol(len);
            lit_code.encode(sym, &mut w);
            w.write_bits((len - base as usize) as u64, extra);
            let (dsym, dbase, dextra) = distance_symbol(dist);
            dist_code.encode(dsym, &mut w);
            w.write_bits((dist - dbase as usize) as u64, dextra);
        }
    }
    lit_code.encode(EOB, &mut w);
    let payload = w.into_bytes();

    let mut out = Vec::with_capacity(payload.len() + 5);
    if payload.len() >= data.len() {
        out.push(0); // stored
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(data);
    } else {
        out.push(1); // huffman
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// Decompresses a buffer produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, DeflateError> {
    let start = telemetry::enabled().then(Instant::now);
    let out = decode(input);
    observe_lossless(start, "decode");
    out
}

fn decode(input: &[u8]) -> Result<Vec<u8>, DeflateError> {
    let mut hdr = ByteReader::new(input);
    let mode = hdr.read_u8().map_err(|_| DeflateError::Truncated)?;
    let expected = hdr.read_u32_le().map_err(|_| DeflateError::Truncated)? as usize;
    let body = hdr.rest();
    match mode {
        0 => {
            if body.len() < expected {
                return Err(DeflateError::Truncated);
            }
            Ok(body[..expected].to_vec())
        }
        1 => {
            let mut r = BitReader::new(body);
            let lit_code = CanonicalCode::read_lengths4(&mut r, NUM_LIT_LEN)?;
            let dist_code = CanonicalCode::read_lengths4(&mut r, NUM_DIST)?;
            // A match token costs ≥ 2 bits and emits ≤ 258 bytes, so an
            // honest stream expands ≤ 1032x: cap the preallocation so a
            // tampered length field cannot reserve gigabytes up front.
            let plausible = body.len().saturating_mul(1032).saturating_add(16);
            let mut out = Vec::with_capacity(expected.min(plausible));
            loop {
                if out.len() > expected {
                    // Already past the promised size — stop before a
                    // hostile stream makes us materialize it all.
                    return Err(DeflateError::LengthMismatch { expected, got: out.len() });
                }
                let sym = lit_code.decode(&mut r)?;
                if sym == EOB {
                    break;
                }
                if sym < 256 {
                    out.push(sym as u8);
                } else {
                    let (base, extra) = LEN_TABLE[sym - 257];
                    let len = base as usize
                        + r.read_bits(extra).map_err(|_| DeflateError::Truncated)? as usize;
                    let dsym = dist_code.decode(&mut r)?;
                    let (dbase, dextra) = DIST_TABLE[dsym];
                    let dist = dbase as usize
                        + r.read_bits(dextra).map_err(|_| DeflateError::Truncated)? as usize;
                    if dist == 0 || dist > out.len() {
                        return Err(DeflateError::BadDistance { dist, have: out.len() });
                    }
                    let start = out.len() - dist;
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
            }
            if out.len() != expected {
                return Err(DeflateError::LengthMismatch { expected, got: out.len() });
            }
            Ok(out)
        }
        m => Err(DeflateError::BadMode(m)),
    }
}

/// Size in bytes after compression (the paper's ".gz file size").
pub fn compressed_size(data: &[u8]) -> usize {
    compress(data).len()
}

/// The encoder as it was before the match-finder speed-ups: linear symbol
/// scans, an `n`-slot chain array, a byte-at-a-time extension of every
/// chain candidate and enum tokens. Kept as the oracle [`compress`] must
/// match byte for byte.
#[cfg(test)]
mod reference {
    use super::*;

    fn length_symbol(len: usize) -> (usize, u16, u8) {
        let mut i = LEN_TABLE.len() - 1;
        while LEN_TABLE[i].0 as usize > len {
            i -= 1;
        }
        (257 + i, LEN_TABLE[i].0, LEN_TABLE[i].1)
    }

    fn distance_symbol(dist: usize) -> (usize, u16, u8) {
        let mut i = DIST_TABLE.len() - 1;
        while DIST_TABLE[i].0 as usize > dist {
            i -= 1;
        }
        (i, DIST_TABLE[i].0, DIST_TABLE[i].1)
    }

    #[derive(Debug, Clone, Copy)]
    enum Token {
        Literal(u8),
        Match { len: usize, dist: usize },
    }

    fn tokenize(data: &[u8]) -> Vec<Token> {
        let n = data.len();
        let mut tokens = Vec::new();
        if n < MIN_MATCH + 1 {
            tokens.extend(data.iter().map(|&b| Token::Literal(b)));
            return tokens;
        }
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; n];
        let insert = |head: &mut Vec<usize>, prev: &mut Vec<usize>, pos: usize| {
            if pos + MIN_MATCH <= n {
                let h = hash(data, pos);
                prev[pos] = head[h];
                head[h] = pos;
            }
        };
        let mut i = 0;
        while i < n {
            let mut best_len = 0;
            let mut best_dist = 0;
            if i + MIN_MATCH <= n {
                let mut cand = head[hash(data, i)];
                let mut chains = 0;
                let limit = (n - i).min(MAX_MATCH);
                while cand != usize::MAX && chains < CHAIN_LIMIT {
                    let dist = i - cand;
                    if dist > WINDOW {
                        break;
                    }
                    let mut l = 0;
                    while l < limit && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l == limit {
                            break;
                        }
                    }
                    cand = prev[cand];
                    chains += 1;
                }
            }
            if best_len >= MIN_MATCH {
                tokens.push(Token::Match { len: best_len, dist: best_dist });
                for k in 0..best_len {
                    insert(&mut head, &mut prev, i + k);
                }
                i += best_len;
            } else {
                tokens.push(Token::Literal(data[i]));
                insert(&mut head, &mut prev, i);
                i += 1;
            }
        }
        tokens
    }

    pub fn compress(data: &[u8]) -> Vec<u8> {
        let tokens = tokenize(data);
        let mut lit_freq = vec![0u64; NUM_LIT_LEN];
        let mut dist_freq = vec![0u64; NUM_DIST];
        for t in &tokens {
            match *t {
                Token::Literal(b) => lit_freq[b as usize] += 1,
                Token::Match { len, dist } => {
                    lit_freq[length_symbol(len).0] += 1;
                    dist_freq[distance_symbol(dist).0] += 1;
                }
            }
        }
        lit_freq[EOB] += 1;
        let lit_code = CanonicalCode::from_freqs(&lit_freq).expect("EOB guarantees a symbol");
        let dist_code = if dist_freq.iter().any(|&f| f > 0) {
            CanonicalCode::from_freqs(&dist_freq).expect("checked nonzero")
        } else {
            let mut f = vec![0u64; NUM_DIST];
            f[0] = 1;
            CanonicalCode::from_freqs(&f).expect("one symbol")
        };
        let mut w = BitWriter::new();
        lit_code.write_lengths4(&mut w);
        dist_code.write_lengths4(&mut w);
        for t in &tokens {
            match *t {
                Token::Literal(b) => lit_code.encode(b as usize, &mut w),
                Token::Match { len, dist } => {
                    let (sym, base, extra) = length_symbol(len);
                    lit_code.encode(sym, &mut w);
                    w.write_bits((len - base as usize) as u64, extra);
                    let (dsym, dbase, dextra) = distance_symbol(dist);
                    dist_code.encode(dsym, &mut w);
                    w.write_bits((dist - dbase as usize) as u64, dextra);
                }
            }
        }
        lit_code.encode(EOB, &mut w);
        let payload = w.into_bytes();
        let mut out = Vec::new();
        if payload.len() >= data.len() {
            out.push(0);
            out.extend_from_slice(&(data.len() as u32).to_le_bytes());
            out.extend_from_slice(data);
        } else {
            out.push(1);
            out.extend_from_slice(&(data.len() as u32).to_le_bytes());
            out.extend_from_slice(&payload);
        }
        out
    }

    #[test]
    fn symbol_tables_match_linear_scans() {
        for len in MIN_MATCH..=MAX_MATCH {
            assert_eq!(super::length_symbol(len), length_symbol(len), "len {len}");
        }
        for dist in 1..=WINDOW {
            assert_eq!(super::distance_symbol(dist), distance_symbol(dist), "dist {dist}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_text_compresses_well() {
        let data: Vec<u8> = b"the quick brown fox ".repeat(500);
        let c = compress(&data);
        assert!(c.len() < data.len() / 10, "{} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn constant_bytes_compress_extremely() {
        let data = vec![42u8; 100_000];
        let c = compress(&data);
        assert!(c.len() < 1000, "constant run compressed to {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_falls_back_to_stored() {
        // High-entropy data from a simple xorshift.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + 5);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn long_matches_cross_thresholds() {
        // Exercise every length bucket including 258.
        let mut data = Vec::new();
        for rep in [3usize, 10, 30, 130, 258, 300, 1000] {
            data.extend(std::iter::repeat_n(b'x', rep));
            data.extend_from_slice(b"SEP");
            data.extend((0..16u8).map(|i| i.wrapping_mul(37)));
        }
        roundtrip(&data);
    }

    #[test]
    fn distant_backreferences() {
        // A repeated phrase separated by > 16 KiB of filler.
        let mut data = Vec::new();
        data.extend_from_slice(b"needle-needle-needle");
        for i in 0..20_000u32 {
            data.push((i % 251) as u8);
        }
        data.extend_from_slice(b"needle-needle-needle");
        roundtrip(&data);
    }

    #[test]
    fn float_series_compress() {
        // The actual workload: little-endian f64 streams.
        let vals: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.01).sin() * 10.0).collect();
        let mut data = Vec::new();
        for v in vals {
            data.extend_from_slice(&v.to_le_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    fn truncated_input_rejected() {
        assert_eq!(decompress(&[1, 0, 0]).unwrap_err(), DeflateError::Truncated);
        let c = compress(b"hello world hello world hello world");
        let cut = &c[..c.len() - 1];
        // Either truncated or length mismatch depending on where the cut is.
        assert!(decompress(cut).is_err());
    }

    #[test]
    fn bad_mode_rejected() {
        assert_eq!(decompress(&[7, 0, 0, 0, 0]).unwrap_err(), DeflateError::BadMode(7));
    }

    /// Deterministic xorshift bytes over an alphabet of `alphabet` symbols
    /// (256 = uniform bytes).
    fn noise(len: usize, seed: u64, alphabet: u32) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 32) as u32 % alphabet) as u8
            })
            .collect()
    }

    fn assert_matches_reference(data: &[u8]) {
        let fast = compress(data);
        assert!(fast == reference::compress(data), "{}-byte input diverged", data.len());
        assert_eq!(decompress(&fast).unwrap(), data);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn prop_matches_reference_random(seed in proptest::prelude::any::<u64>(), len in 0usize..200_000) {
            assert_matches_reference(&noise(len, seed, 256));
        }

        #[test]
        fn prop_matches_reference_small_alphabet(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..200_000,
            alphabet in 2u32..=4,
        ) {
            assert_matches_reference(&noise(len, seed, alphabet));
        }

        #[test]
        fn prop_matches_reference_periodic(
            pattern in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..400),
            len in 0usize..200_000,
            seed in proptest::prelude::any::<u64>(),
        ) {
            // A period with sparse substitutions, so matches end early and
            // the chain walk has to compare near-ties.
            let flips = noise(len, seed, 64);
            let data: Vec<u8> = pattern
                .iter()
                .cycle()
                .zip(&flips)
                .map(|(&p, &f)| if f == 0 { p ^ 0x5A } else { p })
                .collect();
            assert_matches_reference(&data);
        }
    }

    #[test]
    fn edge_lengths_match_reference() {
        // A 16-symbol alphabet keeps chains sparse enough that the walk
        // reaches candidates a whole window back, reading their links.
        for len in (0..=4).chain([5_000, 20_000, 32_767, 32_768, 32_769, 70_000]) {
            for alphabet in [2, 16, 256] {
                assert_matches_reference(&noise(len, len as u64 + 7, alphabet));
            }
        }
        // 140 000 bytes: the chain ring wraps four times.
        let periodic: Vec<u8> = (0..140_000u32).map(|i| (i % 1000 % 251) as u8).collect();
        assert_matches_reference(&periodic);
        for run in [257, 258, 259, 516, 517] {
            let mut data = noise(40, 3, 256);
            data.extend(std::iter::repeat_n(b'r', run));
            data.extend(noise(40, 4, 256));
            data.extend(std::iter::repeat_n(b'r', run));
            assert_matches_reference(&data);
        }
    }

    #[test]
    fn match_at_exactly_the_window_distance() {
        // The needle recurs 32768 bytes after its first copy: the farthest
        // back-reference the window allows. One byte farther, it is out.
        let needle = b"0123456789abcdefNEEDLE";
        for (gap, reachable) in [(WINDOW, true), (WINDOW + 1, false)] {
            let mut data = needle.to_vec();
            data.extend(noise(gap - needle.len(), 11, 200).iter().map(|b| b + 56));
            data.extend_from_slice(needle);
            let found = tokenize(&data)
                .iter()
                .any(|&t| t >= MATCH_FLOOR && unpack_match(t) == (needle.len(), gap));
            assert_eq!(found, reachable, "gap {gap}");
            assert_matches_reference(&data);
        }
    }

    #[test]
    fn lossless_seconds_observes_both_directions() {
        let count = |op: &str| -> u64 {
            telemetry::global()
                .metrics()
                .snapshot()
                .iter()
                .filter(|m| m.name == "lossless_seconds" && m.labels == [("op".into(), op.into())])
                .filter_map(|m| m.value.as_histogram_totals())
                .map(|(n, _)| n)
                .sum()
        };
        // Recording only adds events, so enabling it process-wide cannot
        // disturb the other tests.
        telemetry::set_enabled(true);
        let (enc, dec) = (count("encode"), count("decode"));
        decompress(&compress(b"abcabcabcabc")).unwrap();
        assert!(count("encode") > enc);
        assert!(count("decode") > dec);
    }

    #[test]
    fn length_symbol_buckets() {
        assert_eq!(length_symbol(3).0, 257);
        assert_eq!(length_symbol(10).0, 264);
        assert_eq!(length_symbol(258).0, 285);
        assert_eq!(distance_symbol(1).0, 0);
        assert_eq!(distance_symbol(24577).0, 29);
        assert_eq!(distance_symbol(32768).0, 29);
    }

    #[test]
    fn constant_coefficient_stream_beats_pair_stream() {
        // The paper's PMC-vs-Swing CR argument: constant-value segment
        // streams gzip better than slope/intercept pair streams. Verify our
        // codec reproduces that.
        let constants: Vec<u8> = (0..1000).flat_map(|_| 13.25f64.to_le_bytes()).collect();
        let pairs: Vec<u8> = (0..500)
            .flat_map(|i| {
                let slope = (i as f64) * 1e-4 + 0.123;
                let intercept = (i as f64).sin() * 5.0;
                let mut v = slope.to_le_bytes().to_vec();
                v.extend_from_slice(&intercept.to_le_bytes());
                v
            })
            .collect();
        assert_eq!(constants.len(), pairs.len());
        assert!(compressed_size(&constants) < compressed_size(&pairs));
    }
}
