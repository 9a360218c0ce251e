//! The benchmark's own RESP encoder and reply framer.
//!
//! Commands are encoded and expected replies are built here from the RESP
//! specification alone, never through the `kvstore` codec, so a fault in the
//! program's encoder or decoder shows up as a mismatch instead of cancelling
//! out.

/// Appends `parts` as one RESP array of bulk strings.
pub fn push_command(out: &mut Vec<u8>, parts: &[&[u8]]) {
    push_header(out, b'*', parts.len());
    for part in parts {
        push_header(out, b'$', part.len());
        out.extend_from_slice(part);
        out.extend_from_slice(b"\r\n");
    }
}

/// Appends a command whose arguments are a name and node ids.
pub fn push_graph_command(out: &mut Vec<u8>, name: &str, ids: &[u64]) {
    let digits: Vec<String> = ids.iter().map(u64::to_string).collect();
    let mut parts: Vec<&[u8]> = Vec::with_capacity(1 + ids.len());
    parts.push(name.as_bytes());
    parts.extend(digits.iter().map(String::as_bytes));
    push_command(out, &parts);
}

fn push_header(out: &mut Vec<u8>, kind: u8, n: usize) {
    out.push(kind);
    out.extend_from_slice(n.to_string().as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// The expected `+OK` reply.
pub fn ok() -> Vec<u8> {
    b"+OK\r\n".to_vec()
}

/// The expected integer reply.
pub fn integer(n: i64) -> Vec<u8> {
    format!(":{n}\r\n").into_bytes()
}

/// The expected array-of-bulk-strings reply for a list of node ids.
pub fn id_array<'a>(ids: impl ExactSizeIterator<Item = &'a u64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + ids.len() * 12);
    push_header(&mut out, b'*', ids.len());
    for id in ids {
        let digits = id.to_string();
        push_header(&mut out, b'$', digits.len());
        out.extend_from_slice(digits.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out
}

/// Returns the end offset of the complete reply starting at `pos`, or `None`
/// if `buf` does not hold all of it yet. Malformed input also yields `None`
/// past its first line; the caller's read timeout then ends the run.
pub fn reply_end(buf: &[u8], pos: usize) -> Option<usize> {
    let kind = *buf.get(pos)?;
    let line_end = find_crlf(buf, pos + 1)?;
    let after_line = line_end + 2;
    match kind {
        b'+' | b'-' | b':' => Some(after_line),
        b'$' => {
            let len = parse_len(&buf[pos + 1..line_end])?;
            if len < 0 {
                return Some(after_line);
            }
            let end = after_line + len as usize + 2;
            (buf.len() >= end).then_some(end)
        }
        b'*' => {
            let count = parse_len(&buf[pos + 1..line_end])?;
            let mut cursor = after_line;
            for _ in 0..count.max(0) {
                cursor = reply_end(buf, cursor)?;
            }
            Some(cursor)
        }
        _ => None,
    }
}

fn find_crlf(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?
        .windows(2)
        .position(|w| w == b"\r\n")
        .map(|i| from + i)
}

fn parse_len(digits: &[u8]) -> Option<i64> {
    std::str::from_utf8(digits).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_encode_as_bulk_arrays() {
        let mut out = Vec::new();
        push_graph_command(&mut out, "GRAPH.HASEDGE", &[7, 42]);
        assert_eq!(
            out,
            b"*3\r\n$13\r\nGRAPH.HASEDGE\r\n$1\r\n7\r\n$2\r\n42\r\n".to_vec()
        );
    }

    #[test]
    fn framer_finds_nested_and_partial_replies() {
        let reply = id_array([3u64, 10].iter());
        assert_eq!(reply, b"*2\r\n$1\r\n3\r\n$2\r\n10\r\n".to_vec());
        let mut buf = reply.clone();
        buf.extend_from_slice(b":1\r\n+OK\r\n");
        let first = reply_end(&buf, 0).unwrap();
        assert_eq!(first, reply.len());
        let second = reply_end(&buf, first).unwrap();
        assert_eq!(reply_end(&buf, second), Some(buf.len()));
        assert_eq!(reply_end(&reply[..reply.len() - 1], 0), None);
        assert_eq!(reply_end(b"$-1\r\n", 0), Some(5));
    }
}
