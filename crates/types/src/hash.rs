//! FNV-1a hashing: of byte strings, and process-local fingerprints of
//! serializable values.

use serde::{Serialize, Value};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 of `bytes`: the workspace's one cheap byte hash, behind
/// journal checksums, campaign fingerprints, seed labels and trace-id
/// namespaces. Picked for determinism and zero dependencies, not for
/// collision resistance; its values are stored, so it never changes.
///
/// # Examples
///
/// ```
/// use p7_types::fnv64;
///
/// assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_continue(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a 64 hash over more bytes.
pub(crate) fn fnv64_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A 64-bit FNV-1a fingerprint of `value`'s [`Value`] tree.
///
/// The hash covers every node's variant tag, every sequence, map and
/// string length, every map key, and each number's exact bits
/// (`f64::to_bits` for floats), so equal values always fingerprint
/// equally and a change of one ulp in any float changes the result. No
/// text is formatted on the way. Fingerprints key in-memory caches only:
/// nothing stores them, so the hash may change between builds.
///
/// # Examples
///
/// ```
/// use p7_types::{fingerprint, Volts};
///
/// let a = Volts(1.1);
/// assert_eq!(fingerprint(&a), fingerprint(&Volts(1.1)));
/// assert_ne!(fingerprint(&a), fingerprint(&Volts(1.1f64.next_up())));
/// ```
#[must_use]
pub fn fingerprint<T: Serialize + ?Sized>(value: &T) -> u64 {
    let mut hash = FNV_OFFSET;
    hash_value(&mut hash, &value.to_value());
    hash
}

fn hash_value(hash: &mut u64, value: &Value) {
    match value {
        Value::Null => feed(hash, &[0]),
        Value::Bool(b) => feed(hash, &[1, u8::from(*b)]),
        Value::Int(n) => {
            feed(hash, &[2]);
            feed(hash, &n.to_le_bytes());
        }
        Value::Float(f) => {
            feed(hash, &[3]);
            feed(hash, &f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            feed(hash, &[4]);
            feed_str(hash, s);
        }
        Value::Seq(items) => {
            feed(hash, &[5]);
            feed_len(hash, items.len());
            for item in items {
                hash_value(hash, item);
            }
        }
        Value::Map(entries) => {
            feed(hash, &[6]);
            feed_len(hash, entries.len());
            for (key, item) in entries {
                feed_str(hash, key);
                hash_value(hash, item);
            }
        }
    }
}

fn feed_str(hash: &mut u64, s: &str) {
    feed_len(hash, s.len());
    feed(hash, s.as_bytes());
}

fn feed_len(hash: &mut u64, len: usize) {
    feed(hash, &(len as u64).to_le_bytes());
}

fn feed(hash: &mut u64, bytes: &[u8]) {
    *hash = fnv64_continue(*hash, bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_is_stable_and_input_sensitive() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"/tmp/a"), fnv64(b"/tmp/b"));
        assert_eq!(fnv64(b"/tmp/a"), fnv64(b"/tmp/a"));
        assert_eq!(fnv64(b"ab"), fnv64_continue(fnv64(b"a"), b"b"));
    }

    #[test]
    fn structure_separates_values_with_equal_leaves() {
        // Lengths and tags keep the tree's shape in the hash: moving an
        // element between strings or sequences changes the fingerprint.
        let split = vec!["ab".to_owned(), "c".to_owned()];
        let joined = vec!["a".to_owned(), "bc".to_owned()];
        assert_ne!(fingerprint(&split), fingerprint(&joined));
        let nested = vec![vec![1u8], vec![2]];
        let flat = vec![vec![1u8, 2]];
        assert_ne!(fingerprint(&nested), fingerprint(&flat));
        assert_ne!(fingerprint(&1u64), fingerprint(&1.0f64));
        assert_ne!(fingerprint(&Some(0u8)), fingerprint(&None::<u8>));
    }

    #[test]
    fn every_float_bit_reaches_the_hash() {
        let base = 0.032f64;
        for bit in 0..64 {
            let flipped = f64::from_bits(base.to_bits() ^ (1 << bit));
            assert_ne!(fingerprint(&base), fingerprint(&flipped), "bit {bit}");
        }
        assert_ne!(fingerprint(&0.0f64), fingerprint(&-0.0f64));
    }
}
