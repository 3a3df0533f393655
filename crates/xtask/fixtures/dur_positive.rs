// deepcheck fixture — scanned as crates/service/src/fixture.rs. Seeded
// true positives: a journal write with no fsync before returning, an
// acknowledgement constructed before the WAL append, and framing
// constants duplicated outside the journal module.

const LOCAL_MAGIC: &[u8; 6] = b"DNCJ1\n";

pub fn crc_step(x: u32) -> u32 {
    (x >> 1) ^ 0xEDB8_8320
}

pub fn persist(f: &mut std::fs::File, buf: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    f.write_all(buf)
}

pub fn admit(j: &mut Journal, ops: Vec<Op>) -> Response {
    let resp = Response::Admitted { index: 0 };
    j.append_batch(&ops).ok();
    resp
}
