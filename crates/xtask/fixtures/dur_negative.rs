// deepcheck fixture — scanned as crates/service/src/fixture.rs. Known
// false-positive shapes that must stay clean: write followed by fsync,
// append-before-ack in order, an ack *matcher* with no append at all
// (not a commit path), and a rejection constructed before any append
// (rejections are not committed acknowledgements).

pub fn persist(f: &mut std::fs::File, buf: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    f.write_all(buf)?;
    f.sync_data()
}

pub fn admit(j: &mut Journal, ops: Vec<Op>) -> Response {
    j.append_batch(&ops).ok();
    Response::Admitted { index: 0 }
}

pub fn committed(r: &Response) -> bool {
    matches!(r, Response::Admitted { .. } | Response::Released { .. })
}
