//! Key-blind: nothing here may name decryption or plaintext items.

pub fn aggregate(cipher: &C, a: &Ct, b: &Ct) -> Result<Ct, CipherError> {
    let sum = cipher.add(a, b)?;
    let Some(first) = recv.get(&v) else {
        return Err(CipherError::NotAUnit);
    };
    cipher.add(&sum, first)
}

/// Token-clean: same shape as the dirty `route` leak, but the chain
/// behind `relay_meta` clears at every hop, so no diagnostic fires.
pub fn shard(ct: u64) -> usize {
    relay_meta(ct)
}

/// A file handle's `open` is no sealed-counter open.
pub fn reopen(opts: &OpenOptions, path: &Path) -> io::Result<File> {
    // gridlint: allow(privacy-taint) -- std::fs::OpenOptions::open, not a sealed-counter open
    opts.open(path)
}

/// The session builder is the key provisioner: it hands the key on.
pub fn provision(seed: u64) -> Resource {
    let key: PrivateKey = keygen(seed); // gridlint: allow(privacy-taint, taint-flow) -- the key provisioner hands keys on and never opens a ciphertext
    Resource::with_key(key)
}

pub fn send(stats: &mut Stats, rec: &SharedRecorder) {
    stats.crashes += 1;
    emit(rec, || Event::ResourceCrashed { at: 0 });
    emit(rec, || Event::CounterSent { from: 0 });
}

#[cfg(test)]
mod tests {
    // Tests are the trusted observer: panics and secrets are fine here.
    fn t() {
        let p = agg.open(&dec, &key).unwrap();
        assert_eq!(p.sum, 1);
    }
}
