// deepcheck fixture — scanned as crates/fixture/src/fs.rs. Shapes that
// must stay clean: the one sanctioned `temp_dir()` call inside
// `impl ScratchDir`, a test taking its path from `ScratchDir`, a
// definition merely *named* temp_dir, and the name in strings.

pub struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        ScratchDir(std::env::temp_dir().join(format!("dnc-{tag}")))
    }
}

pub fn temp_dir() -> &'static str {
    "never std::env::temp_dir() here"
}

#[cfg(test)]
mod tests {
    #[test]
    fn writes_a_journal() {
        let dir = super::ScratchDir::new("journal");
        std::fs::write(dir.0.join("journal.wal"), b"x").unwrap();
    }
}
