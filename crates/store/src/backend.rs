//! Storage backends: the primitive file operations a [`crate::Store`]
//! is built from.
//!
//! The trait exists so durability logic can be tested under fault
//! injection: [`FsBackend`] talks to a real directory with the full
//! fsync discipline, [`MemBackend`] models the same semantics in memory
//! — including the synced/unsynced distinction a crash exploits — and
//! [`crate::CrashBackend`] wraps it to kill any operation at any byte
//! boundary.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::error::StoreError;
use crate::wal::{push_bytes, push_str, Cursor};

/// Primitive file operations, in terms the crash model understands.
///
/// Contract (matched by both implementations):
/// * `append` buffers: bytes are not durable until `sync(name)`.
/// * `rename`, `remove` and `truncate` are atomic and durable on
///   return ([`FsBackend`] syncs the parent directory).
/// * `read` returns the *live* view (buffered bytes included);
///   `Ok(None)` when the file does not exist.
pub trait Backend {
    /// Full contents of `name`, or `None` if absent.
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, StoreError>;
    /// Appends `bytes` to `name`, creating it if absent.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;
    /// Makes every appended byte of `name` durable.
    fn sync(&mut self, name: &str) -> Result<(), StoreError>;
    /// Truncates `name` to `len` bytes (used to drop a torn WAL tail).
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError>;
    /// Atomically replaces `to` with `from`.
    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError>;
    /// Deletes `name`; absent files are not an error (idempotent).
    fn remove(&mut self, name: &str) -> Result<(), StoreError>;
    /// Every file name in the store, in unspecified order.
    fn list(&mut self) -> Result<Vec<String>, StoreError>;
}

// ── real directory ────────────────────────────────────────────────────

/// A backend over one dedicated directory on a real filesystem.
///
/// Append handles are cached per file; `sync` is `fdatasync`, and every
/// metadata operation (`rename`, `remove`, `truncate`) is followed by a
/// parent-directory fsync so it survives power loss, not just a process
/// kill.
pub struct FsBackend {
    root: PathBuf,
    handles: HashMap<String, File>,
}

impl FsBackend {
    /// Opens (creating if needed) the directory `root`.
    pub fn open<P: AsRef<Path>>(root: P) -> Result<Self, StoreError> {
        std::fs::create_dir_all(&root)?;
        Ok(FsBackend { root: root.as_ref().to_path_buf(), handles: HashMap::new() })
    }

    /// The directory this backend owns.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn handle(&mut self, name: &str) -> Result<&mut File, StoreError> {
        if !self.handles.contains_key(name) {
            // gridlint: allow(privacy-taint) -- std::fs::OpenOptions::open, not a sealed-counter open
            let file = OpenOptions::new().create(true).append(true).open(self.path(name))?;
            self.handles.insert(name.to_string(), file);
        }
        match self.handles.get_mut(name) {
            Some(f) => Ok(f),
            None => Err(StoreError::Io("append handle vanished".into())),
        }
    }

    fn sync_dir(&self) -> Result<(), StoreError> {
        File::open(&self.root)?.sync_all()?;
        Ok(())
    }
}

impl Backend for FsBackend {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.handle(name)?.write_all(bytes)?;
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        self.handle(name)?.sync_data()?;
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        // Drop the cached append handle first: append mode positions at
        // the (new) end on every write, but a stale handle must not
        // outlive the truncation on exotic filesystems.
        self.handles.remove(name);
        // gridlint: allow(privacy-taint) -- std::fs::OpenOptions::open, not a sealed-counter open
        let file = OpenOptions::new().write(true).open(self.path(name))?;
        file.set_len(len)?;
        file.sync_all()?;
        self.sync_dir()
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        self.handles.remove(from);
        self.handles.remove(to);
        std::fs::rename(self.path(from), self.path(to))?;
        self.sync_dir()
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.handles.remove(name);
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => self.sync_dir(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn list(&mut self) -> Result<Vec<String>, StoreError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        Ok(out)
    }
}

/// Crash-safe whole-file write: sibling tmp file, fsync, atomic rename,
/// parent-directory fsync. Returns the path actually written. This is
/// the primitive `RecoveryImage::write_to` and the snapshot rotation
/// share; a reader never observes a half-written file, only the old
/// bytes or the new.
pub fn atomic_write_file<P: AsRef<Path>>(path: P, bytes: &[u8]) -> std::io::Result<PathBuf> {
    let path = path.as_ref();
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => {
            std::fs::create_dir_all(d)?;
            Some(d)
        }
        _ => None,
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = dir {
        File::open(dir)?.sync_all()?;
    }
    Ok(path.to_path_buf())
}

// ── in-memory model ───────────────────────────────────────────────────

/// One modeled file: live bytes plus the durable watermark.
#[derive(Clone, Debug, Default)]
struct MemFile {
    bytes: Vec<u8>,
    synced: usize,
}

/// An in-memory backend modeling the durability contract: appends land
/// in `bytes` but only `synced` of them survive a crash that loses the
/// page cache. [`MemBackend::crashed`] materializes the post-crash
/// view.
#[derive(Clone, Debug, Default)]
pub struct MemBackend {
    files: BTreeMap<String, MemFile>,
}

impl MemBackend {
    /// An empty store.
    pub fn new() -> Self {
        MemBackend::default()
    }

    /// The view a restart would see after losing this backend mid-run.
    /// With `lose_unsynced`, every file drops back to its durable
    /// watermark (the page cache died with the machine); without, all
    /// appended bytes survive (the process died, the kernel lived).
    /// Both are legal post-crash states and the sweep checks both.
    pub fn crashed(&self, lose_unsynced: bool) -> MemBackend {
        let files = self
            .files
            .iter()
            .map(|(name, f)| {
                let mut bytes = f.bytes.clone();
                if lose_unsynced {
                    bytes.truncate(f.synced);
                }
                let synced = bytes.len();
                (name.clone(), MemFile { bytes, synced })
            })
            .collect();
        MemBackend { files }
    }

    /// Direct mutable access to a file's bytes (fixture construction
    /// and tamper tests; creates the file if absent).
    pub fn bytes_mut(&mut self, name: &str) -> &mut Vec<u8> {
        &mut self.files.entry(name.to_string()).or_default().bytes
    }

    /// Direct read access without the `Backend` plumbing.
    pub fn bytes(&self, name: &str) -> Option<&[u8]> {
        self.files.get(name).map(|f| f.bytes.as_slice())
    }

    /// Every file as one byte string — `name, bytes` frames in name
    /// order — so a whole store can be held across a crash window or
    /// published with one [`atomic_write_file`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let framed = |(name, f): (&String, &MemFile)| 2 + name.len() + 4 + f.bytes.len();
        let mut out = Vec::with_capacity(self.files.iter().map(framed).sum());
        for (name, f) in &self.files {
            push_str(&mut out, name);
            push_bytes(&mut out, &f.bytes);
        }
        out
    }

    /// Total inverse of [`MemBackend::to_bytes`]: `None` unless `bytes`
    /// is exactly a run of whole frames with distinct names. What was
    /// read from an image is durable by definition, so every file comes
    /// back fully synced. The segments themselves are not looked at —
    /// that is [`crate::Store::open`]'s job.
    pub fn from_bytes(bytes: &[u8]) -> Option<MemBackend> {
        let mut r = Cursor { buf: bytes, pos: 0 };
        let mut files = BTreeMap::new();
        while r.pos < bytes.len() {
            let (name, content) = (r.string()?, r.bytes()?);
            let synced = content.len();
            if files.insert(name, MemFile { bytes: content, synced }).is_some() {
                return None;
            }
        }
        Some(MemBackend { files })
    }
}

impl Backend for MemBackend {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.files.get(name).map(|f| f.bytes.clone()))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.files.entry(name.to_string()).or_default().bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        let f = self.files.entry(name.to_string()).or_default();
        f.synced = f.bytes.len();
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        let f = self.files.entry(name.to_string()).or_default();
        f.bytes.truncate(len as usize);
        f.synced = f.synced.min(f.bytes.len());
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        match self.files.remove(from) {
            Some(mut f) => {
                // Rename is durable on return: publish the live bytes.
                f.synced = f.bytes.len();
                self.files.insert(to.to_string(), f);
                Ok(())
            }
            None => Err(StoreError::Io(format!("rename: no such file {from}"))),
        }
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.files.remove(name);
        Ok(())
    }

    fn list(&mut self) -> Result<Vec<String>, StoreError> {
        Ok(self.files.keys().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_models_the_durability_contract() {
        let mut b = MemBackend::new();
        b.append("f", b"hello").expect("append");
        b.sync("f").expect("sync");
        b.append("f", b" world").expect("append");
        assert_eq!(b.read("f").expect("read").as_deref(), Some(&b"hello world"[..]));
        let lost = b.crashed(true);
        assert_eq!(lost.bytes("f"), Some(&b"hello"[..]));
        let kept = b.crashed(false);
        assert_eq!(kept.bytes("f"), Some(&b"hello world"[..]));
    }

    #[test]
    fn mem_backend_frames_to_bytes_and_back() {
        let mut b = MemBackend::new();
        b.append("wal-0.log", b"tail").expect("append");
        b.append("snap-0.seg", b"").expect("append");
        b.sync("snap-0.seg").expect("sync");
        let bytes = b.to_bytes();
        let back = MemBackend::from_bytes(&bytes).expect("whole frames decode");
        assert_eq!(back.bytes("wal-0.log"), Some(&b"tail"[..]));
        assert_eq!(back.bytes("snap-0.seg"), Some(&b""[..]));
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.crashed(true).bytes("wal-0.log"), Some(&b"tail"[..]), "read = durable");
        assert!(MemBackend::from_bytes(&[]).is_some_and(|b| b.to_bytes().is_empty()));
        // Cut inside a frame, the frame is short; cut between the two,
        // a file is missing (for `Store::open` and the head pin to
        // notice); repeated, a name collides.
        let first = 2 + "snap-0.seg".len() + 4;
        for cut in (1..bytes.len()).filter(|&cut| cut != first) {
            assert!(MemBackend::from_bytes(&bytes[..cut]).is_none(), "cut {cut}");
        }
        assert!(MemBackend::from_bytes(&bytes[..first]).is_some_and(|b| b.files.len() == 1));
        let twice = [bytes.as_slice(), bytes.as_slice()].concat();
        assert!(MemBackend::from_bytes(&twice).is_none());
        // A length claim past the end allocates nothing and decodes to nothing.
        assert!(MemBackend::from_bytes(&[1, 0, b'f', 0xFF, 0xFF, 0xFF, 0xFF]).is_none());
    }

    #[test]
    fn fs_backend_round_trips_through_a_real_directory() {
        let dir = std::env::temp_dir().join(format!("gridmine-store-fsb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut b = FsBackend::open(&dir).expect("open");
        b.append("a.log", b"one").expect("append");
        b.sync("a.log").expect("sync");
        b.append("a.log", b"two").expect("append");
        assert_eq!(b.read("a.log").expect("read").as_deref(), Some(&b"onetwo"[..]));
        b.truncate("a.log", 3).expect("truncate");
        assert_eq!(b.read("a.log").expect("read").as_deref(), Some(&b"one"[..]));
        b.rename("a.log", "b.log").expect("rename");
        assert_eq!(b.read("a.log").expect("read"), None);
        let mut names = b.list().expect("list");
        names.sort();
        assert_eq!(names, vec!["b.log".to_string()]);
        b.remove("b.log").expect("remove");
        b.remove("b.log").expect("idempotent remove");
        assert!(b.list().expect("list").is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_returns_the_path_and_replaces_whole() {
        let dir = std::env::temp_dir().join(format!("gridmine-store-aw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("image.json");
        let written = atomic_write_file(&path, b"v1").expect("write");
        assert_eq!(written, path);
        assert_eq!(std::fs::read(&path).expect("read"), b"v1");
        atomic_write_file(&path, b"v2-longer").expect("rewrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"v2-longer");
        assert!(!path.with_extension("json.tmp").exists(), "tmp cleaned by rename");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
