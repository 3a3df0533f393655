// deepcheck fixture — scanned as crates/fixture/tests/store.rs. Seeded
// true positives: hand-built temporary paths in an integration-test
// tree, through a full path, an imported `temp_dir`, and inside a
// `#[cfg(test)]` module.

use std::env::temp_dir;

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("store_{tag}_{}", std::process::id()))
}

fn shared_file() -> std::path::PathBuf {
    temp_dir().join("store.db")
}

#[cfg(test)]
mod tests {
    #[test]
    fn writes_a_journal() {
        let path = std::env::temp_dir().join("journal.wal");
        std::fs::write(path, b"x").unwrap();
    }
}
