//! The client's own JSON reader for responses.
//!
//! Replies are checked with a parser that is not the code under test
//! (`regtree_core::api::Json::parse`), and that stays linear on large
//! bodies. `Json::parse` re-validates the rest of its input for every
//! plain string character: on the ~80 KB replies of `matrix-stdio` it
//! takes ~120 ms each, and a 20-second run then takes over two and a half
//! minutes of wall time. It accepts what the daemon writes: compact JSON from
//! `Json::to_compact`, whose strings escape only `"`, `\`, control
//! characters and (in other producers) `/` and `\uXXXX`.

use regtree_core::api::Json;

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses one JSON value spanning all of `text`.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut r = Reader {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = r.value()?;
    r.ws();
    if r.pos == r.bytes.len() {
        Ok(value)
    } else {
        Err(format!("trailing bytes at {}", r.pos))
    }
}

impl Reader<'_> {
    fn ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.bytes.get(self.pos) == Some(&b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                if self.eat(b'}') {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return self.err("expected ':'");
                    }
                    members.push((key, self.value()?));
                    if self.eat(b'}') {
                        return Ok(Json::Obj(members));
                    }
                    if !self.eat(b',') {
                        return self.err("expected ',' or '}'");
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b']') {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(b',') {
                        return self.err("expected ',' or ']'");
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) => {
                for (word, value) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                if self.pos == start {
                    return self.err("unexpected byte");
                }
                let lexeme = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
                Ok(Json::Num(lexeme.to_string()))
            }
            None => self.err("unexpected end"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return self.err("expected a string");
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.extend_from_slice(&self.bytes[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return String::from_utf8(out).map_err(|_| "string is not UTF-8".into());
            }
            let esc = *self.bytes.get(self.pos + 1).ok_or("truncated escape")?;
            self.pos += 2;
            let c = match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or("truncated \\u")?;
                    let code = std::str::from_utf8(hex)
                        .ok()
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or("bad \\u escape")?;
                    self.pos += 4;
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return self.err("bad escape"),
            };
            let mut buf = [0u8; 4];
            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_to_compact_writes() {
        let v = Json::Obj(vec![
            (
                "a".into(),
                Json::Arr(vec![Json::u64(1), Json::Null, Json::Bool(false)]),
            ),
            ("s".into(), Json::str("x \"q\" \\ \n\t <é>")),
            ("n".into(), Json::Num("-2.5e3".into())),
        ]);
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
    }
}
