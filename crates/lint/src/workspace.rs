//! Workspace model: the file walk, the crate-name map, and the
//! lightweight import graph used for reachability ("which modules can a
//! deterministic-replay driver pull in?").
//!
//! Module resolution is intentionally approximate — `crate::m` resolves
//! to a sibling `m.rs`/`m/mod.rs`, `gridmine_x::m` resolves through the
//! workspace crate map, and anything unresolvable conservatively pulls
//! the whole target crate. That over-approximates reachability, which
//! for a *deny* rule is the safe direction.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};

use crate::lexer::{self, Lexed, TokKind};

/// One lexed source file.
pub struct SourceFile {
    /// Repo-relative, `/`-separated path.
    pub rel: String,
    pub lexed: Lexed,
}

/// The walked workspace.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    /// `package_name_with_underscores -> crate src dir` (repo-relative),
    /// e.g. `gridmine_paillier -> crates/paillier/src`.
    pub crate_map: BTreeMap<String, String>,
}

/// Directories under the root that are walked for `.rs` files.
const WALK_ROOTS: [&str; 5] = ["crates", "examples", "shims", "src", "tests"];

impl Workspace {
    /// Walks and lexes the workspace. `exclude` holds repo-relative path
    /// prefixes to skip (fixture corpora, build output).
    pub fn load(root: &Path, exclude: &[String]) -> Result<Workspace, String> {
        let mut files = Vec::new();
        for top in WALK_ROOTS {
            let dir = root.join(top);
            if dir.is_dir() {
                walk_dir(root, &dir, exclude, &mut files)?;
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        let crate_map = build_crate_map(root);
        Ok(Workspace { files, crate_map })
    }

    /// Repo-relative paths of every walked file.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.iter().map(|f| f.rel.as_str())
    }

    /// The transitive import closure of the files under `roots`
    /// (repo-relative path prefixes, like every configured path) over the
    /// crate-internal and cross-crate use graph.
    pub fn reachable_from(&self, roots: &[String]) -> BTreeSet<String> {
        let by_path: BTreeMap<&str, &SourceFile> =
            self.files.iter().map(|f| (f.rel.as_str(), f)).collect();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue: VecDeque<String> = self
            .paths()
            .filter(|f| roots.iter().any(|r| f.starts_with(r.as_str())))
            .map(str::to_string)
            .collect();
        seen.extend(queue.iter().cloned());
        while let Some(path) = queue.pop_front() {
            let Some(file) = by_path.get(path.as_str()) else { continue };
            for target in self.imports_of(file) {
                if seen.insert(target.clone()) {
                    queue.push_back(target);
                }
            }
        }
        seen
    }

    /// Files referenced by `file` through `crate::m` / `gridmine_x::m`
    /// paths (including inline paths, not just `use` items).
    fn imports_of(&self, file: &SourceFile) -> Vec<String> {
        let mut out = BTreeSet::new();
        let toks = &file.lexed.toks;
        let own_src_dir = file.rel.rsplit_once('/').map(|(d, _)| d.to_string()).unwrap_or_default();
        for i in 0..toks.len() {
            if toks[i].kind != TokKind::Ident {
                continue;
            }
            // `<head> :: <seg>`
            let is_path_head = matches!(
                (toks.get(i + 1), toks.get(i + 2)),
                (Some(a), Some(b)) if a.text == ":" && b.text == ":"
            );
            if !is_path_head {
                continue;
            }
            let seg = match toks.get(i + 3) {
                Some(t) if t.kind == TokKind::Ident => t.text.as_str(),
                _ => continue,
            };
            let head = toks[i].text.as_str();
            if head == "crate" {
                // `crate::seg::…` — sibling module in the same src tree.
                let f1 = format!("{own_src_dir}/{seg}.rs");
                let f2 = format!("{own_src_dir}/{seg}/mod.rs");
                if self.has(&f1) {
                    out.insert(f1);
                } else if self.has(&f2) {
                    out.insert(f2);
                }
            } else if let Some(src_dir) = self.crate_map.get(head) {
                // Cross-crate: resolve the first segment when it names a
                // module file; otherwise (a re-export) pull the crate.
                let f1 = format!("{src_dir}/{seg}.rs");
                let f2 = format!("{src_dir}/{seg}/mod.rs");
                if self.has(&f1) {
                    out.insert(f1);
                } else if self.has(&f2) {
                    out.insert(f2);
                } else {
                    for f in self.files.iter().filter(|f| f.rel.starts_with(src_dir.as_str())) {
                        out.insert(f.rel.clone());
                    }
                }
            }
        }
        out.into_iter().collect()
    }

    fn has(&self, rel: &str) -> bool {
        self.files.iter().any(|f| f.rel == rel)
    }
}

fn walk_dir(
    root: &Path,
    dir: &Path,
    exclude: &[String],
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let rel = rel_of(root, &path);
        if exclude.iter().any(|p| rel.starts_with(p.as_str()))
            || rel.split('/').any(|seg| seg == "target")
        {
            continue;
        }
        if path.is_dir() {
            walk_dir(root, &path, exclude, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            out.push(SourceFile { rel, lexed: lexer::lex(&src) });
        }
    }
    Ok(())
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Maps workspace package names (underscored) to their `src` dirs by
/// scanning `crates/*/Cargo.toml` and `shims/*/Cargo.toml`.
fn build_crate_map(root: &Path) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for group in ["crates", "shims"] {
        let dir = root.join(group);
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.filter_map(|e| e.ok()) {
            let manifest = entry.path().join("Cargo.toml");
            let Ok(text) = std::fs::read_to_string(&manifest) else { continue };
            if let Some(name) = package_name(&text) {
                let crate_dir = rel_of(root, &entry.path());
                map.insert(name.replace('-', "_"), format!("{crate_dir}/src"));
            }
        }
    }
    map
}

/// First `name = "…"` in a manifest (good enough for workspace members,
/// whose `[package]` table leads the file).
fn package_name(manifest: &str) -> Option<String> {
    for line in manifest.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(v) = rest.strip_prefix('=') {
                return v.trim().trim_matches('"').to_string().into();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile { rel: rel.to_string(), lexed: lexer::lex(src) }
    }

    fn ws(files: Vec<SourceFile>) -> Workspace {
        let mut crate_map = BTreeMap::new();
        crate_map.insert("gridmine_paillier".to_string(), "crates/paillier/src".to_string());
        Workspace { files, crate_map }
    }

    #[test]
    fn reachability_follows_crate_and_cross_crate_paths() {
        let w = ws(vec![
            file("crates/core/src/threaded.rs", "use crate::resource::SecureResource;"),
            file("crates/core/src/resource.rs", "use crate::broker::Broker;"),
            file("crates/core/src/broker.rs", "use gridmine_paillier::cipher::PaillierCtx;"),
            file("crates/paillier/src/cipher.rs", "fn x() {}"),
            file("crates/core/src/attack.rs", "fn unrelated() {}"),
        ]);
        let set = w.reachable_from(&["crates/core/src/threaded.rs".to_string()]);
        assert!(set.contains("crates/core/src/resource.rs"));
        assert!(set.contains("crates/core/src/broker.rs"));
        assert!(set.contains("crates/paillier/src/cipher.rs"));
        assert!(!set.contains("crates/core/src/attack.rs"));
    }

    #[test]
    fn unresolvable_cross_crate_segment_pulls_the_whole_crate() {
        let w = ws(vec![
            file("crates/core/src/a.rs", "use gridmine_paillier::PaillierCtx;"),
            file("crates/paillier/src/cipher.rs", ""),
            file("crates/paillier/src/keys.rs", ""),
        ]);
        let set = w.reachable_from(&["crates/core/src/a.rs".to_string()]);
        assert!(set.contains("crates/paillier/src/cipher.rs"));
        assert!(set.contains("crates/paillier/src/keys.rs"));
    }
}
