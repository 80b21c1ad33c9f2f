//! Token-clean twin of the dirty corpus chain: identical call shape
//! (decrypt_len -> fetch_meta -> relay_meta -> key-blind broker), but
//! every return type clears, so no taint ever starts.

pub fn decrypt_len(ct: u64) -> usize {
    (ct % 7) as usize
}

pub fn fetch_meta(ct: u64) -> usize {
    decrypt_len(ct)
}

pub fn relay_meta(ct: u64) -> usize {
    fetch_meta(ct)
}

/// Key generation: returns key material, so its callers carry it.
pub fn keygen(seed: u64) -> PrivateKey {
    PrivateKey::from_seed(seed)
}
