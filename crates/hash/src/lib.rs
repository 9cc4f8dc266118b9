//! # semrec-hash — the workspace's canonical non-cryptographic hashes
//!
//! One home for the hash primitives that several crates previously carried
//! private copies of. Checksums (`semrec-store` snapshot/WAL frames) and
//! seeded pseudo-random decisions (`semrec-web` fault injection) both hash
//! the same way, so the two can never silently drift apart.
//!
//! Nothing here is cryptographic: these functions guard against torn
//! writes and provide deterministic, well-mixed fault schedules — they do
//! not resist adversaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The FNV-1a 64-bit offset basis (the hash of the empty input).
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
pub const FNV1A64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash over a byte slice.
///
/// This is the snapshot/WAL integrity checksum and the byte-mixing step of
/// fault-injection decisions.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(FNV1A64_OFFSET, bytes)
}

/// Folds more bytes into an FNV-1a 64-bit state, enabling incremental
/// hashing over several slices without concatenating them first.
pub fn fnv1a64_continue(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV1A64_PRIME);
    }
    hash
}

/// SplitMix64 finalizer: one round of strong avalanche mixing.
///
/// FNV-1a's low bits are weak for short inputs; callers that turn a hash
/// into a uniform decision (fault injection) finish with this mixer.
pub fn splitmix64(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// A stateless seeded decision hash: FNV-1a over the key bytes, mixed with
/// `seed`/`attempt`/`salt` through the SplitMix64 finalizer.
///
/// This is how every seeded pseudo-random decision in the workspace is
/// derived — fault-injection schedules and retry jitter (`semrec-web`),
/// gossip partner selection and payload rotation (`semrec-p2p`). Because
/// the hash is a pure function of `(seed, key, attempt, salt)` there is no
/// shared RNG stream, so decisions commute with thread scheduling and stay
/// byte-identical across runs and worker counts. Each call site owns a
/// distinct `salt` constant so that, from `attempt` 1 on, its decision
/// stream is independent of every other's under the same seed. At
/// `attempt == 0` the salt is multiplied away (`attempt * salt`), so every
/// call site draws the same value for a given `(seed, key)` there.
pub fn stable_hash(seed: u64, key: &str, attempt: u64, salt: u64) -> u64 {
    let h = fnv1a64(key.as_bytes());
    splitmix64(h ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ attempt.wrapping_mul(salt))
}

/// Maps a hash to a uniform f64 in `[0, 1)`.
///
/// Uses the top 53 bits, so every representable value is an exact multiple
/// of 2⁻⁵³ — the standard uniform-double construction.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_hashing_matches_one_shot() {
        let whole = fnv1a64(b"hello world");
        let split = fnv1a64_continue(fnv1a64(b"hello "), b"world");
        assert_eq!(whole, split);
    }

    #[test]
    fn stable_hash_is_deterministic_and_sensitive_to_every_input() {
        let base = stable_hash(7, "http://ex.org/a", 0, 0x1234);
        assert_eq!(base, stable_hash(7, "http://ex.org/a", 0, 0x1234));
        assert_ne!(base, stable_hash(8, "http://ex.org/a", 0, 0x1234));
        assert_ne!(base, stable_hash(7, "http://ex.org/b", 0, 0x1234));
        assert_ne!(base, stable_hash(7, "http://ex.org/a", 1, 0x1234));
        // The salt enters as `attempt * salt`: it separates call sites from
        // attempt 1 on and is multiplied away at attempt 0.
        assert_ne!(
            stable_hash(7, "http://ex.org/a", 1, 0x1234),
            stable_hash(7, "http://ex.org/a", 1, 0x1235)
        );
        assert_eq!(base, stable_hash(7, "http://ex.org/a", 0, 0x1235));
    }

    #[test]
    fn unit_stays_in_the_half_open_interval() {
        for h in [0, 1, u64::MAX, 0xdead_beef, 1 << 63] {
            let u = unit(h);
            assert!((0.0..1.0).contains(&u), "unit({h}) = {u}");
        }
        assert_eq!(unit(0), 0.0);
    }

    #[test]
    fn splitmix64_avalanches_small_inputs() {
        // Adjacent inputs must not produce adjacent outputs.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a ^ b, 0);
        assert!((a ^ b).count_ones() > 16, "weak avalanche: {:#x}", a ^ b);
    }
}
