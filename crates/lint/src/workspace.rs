//! Workspace model: the walked and lexed `.rs` files.

use std::path::{Path, PathBuf};

use crate::lexer::{self, Lexed};

/// One lexed source file.
pub struct SourceFile {
    /// Repo-relative, `/`-separated path.
    pub rel: String,
    pub lexed: Lexed,
}

/// The walked workspace.
pub struct Workspace {
    pub files: Vec<SourceFile>,
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
        Ok(Workspace { files })
    }

    /// Repo-relative paths of every walked file.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.iter().map(|f| f.rel.as_str())
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
