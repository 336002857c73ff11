//! The workspace's one JSON writer.
//!
//! Every machine-readable report — telemetry snapshots and time-series,
//! alert events, the `/health` body, causal-trace exports and the eval
//! experiment reports — is written through this module: one string
//! escaper plus object and array writers that own the comma, key and
//! nesting bookkeeping, so an emitter only names keys and values.
//! Output carries no whitespace and keeps insertion order; an
//! emitter that visits keys in a fixed order and writes integers only
//! therefore produces the same bytes for the same data, which is what
//! the deterministic reports and their cross-worker `cmp` gates rely on.
//!
//! Bare values are restricted to integers and booleans ([`Bare`]);
//! strings always go through the escaper, so no input can produce
//! invalid JSON.

use std::fmt::{Display, Write as _};

/// A value written without quotes: an integer or a boolean.
pub trait Bare: Display {}

macro_rules! bare {
    ($($t:ty),*) => { $(impl Bare for $t {})* };
}
bare!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);
impl<T: Bare + ?Sized> Bare for &T {}

/// Appends `s` as a JSON string literal: quotes and backslashes are
/// escaped, `\n`/`\r`/`\t` take their short forms, and every other
/// control character below 0x20 becomes `\u00XX`.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders one JSON object whose members `fill` writes.
pub fn object(fill: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    Object::write(&mut out, fill);
    out
}

/// An open JSON object; each call appends one `"key":value` member.
pub struct Object<'a> {
    out: &'a mut String,
    first: bool,
}

impl Object<'_> {
    fn write(out: &mut String, fill: impl FnOnce(&mut Object<'_>)) {
        out.push('{');
        fill(&mut Object { out, first: true });
        out.push('}');
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// `"key":value` for an integer or boolean.
    pub fn field(&mut self, key: &str, value: impl Bare) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// `"key":"value"` with the value escaped.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        push_string(self.key(key), value);
        self
    }

    /// `"key":json` for a value another emitter already rendered.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }

    /// One `"name":value` member per entry, e.g. a whole
    /// `BTreeMap<String, u64>` of counters in its sorted order.
    pub fn fields<K: AsRef<str>, T: Bare>(
        &mut self,
        entries: impl IntoIterator<Item = (K, T)>,
    ) -> &mut Self {
        for (name, value) in entries {
            self.field(name.as_ref(), value);
        }
        self
    }

    /// `"key":{"name":{...},...}`: one nested object per entry, with
    /// `each` writing the entry's members.
    pub fn map<K: AsRef<str>, V>(
        &mut self,
        key: &str,
        entries: impl IntoIterator<Item = (K, V)>,
        mut each: impl FnMut(&mut Object<'_>, V),
    ) -> &mut Self {
        self.object(key, |m| {
            for (name, value) in entries {
                m.object(name.as_ref(), |o| each(o, value));
            }
        })
    }

    /// `"key":[...]` of integers or booleans.
    pub fn list<T: Bare>(&mut self, key: &str, values: impl IntoIterator<Item = T>) -> &mut Self {
        self.array(key, |a| {
            for v in values {
                a.item(v);
            }
        })
    }

    /// `"key":{...}` with a nested object.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        Object::write(self.key(key), fill);
        self
    }

    /// `"key":[...]` with a nested array.
    pub fn array(&mut self, key: &str, fill: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        Array::write(self.key(key), fill);
        self
    }
}

/// An open JSON array; each call appends one element.
pub struct Array<'a> {
    out: &'a mut String,
    first: bool,
}

impl Array<'_> {
    fn write(out: &mut String, fill: impl FnOnce(&mut Array<'_>)) {
        out.push('[');
        fill(&mut Array { out, first: true });
        out.push(']');
    }

    fn next(&mut self) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out
    }

    /// An integer or boolean element.
    pub fn item(&mut self, value: impl Bare) -> &mut Self {
        let _ = write!(self.next(), "{value}");
        self
    }

    /// An escaped string element.
    pub fn string(&mut self, value: &str) -> &mut Self {
        push_string(self.next(), value);
        self
    }

    /// An element another emitter already rendered.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.next().push_str(json);
        self
    }

    /// A nested object element.
    pub fn object(&mut self, fill: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        Object::write(self.next(), fill);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        push_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn fields_are_comma_separated() {
        let s = object(|o| {
            o.field("a", 1).field("b", 2).string("c", "x");
        });
        assert_eq!(s, "{\"a\":1,\"b\":2,\"c\":\"x\"}");
    }

    #[test]
    fn json_escapes_awkward_names() {
        let json = object(|o| {
            o.field("odd\"name\\x", 1);
        });
        assert!(json.contains("\"odd\\\"name\\\\x\":1"));
    }

    #[test]
    fn every_control_char_escapes_to_valid_json() {
        for c in (0u32..0x20).filter_map(char::from_u32) {
            let mut s = String::new();
            push_string(&mut s, &c.to_string());
            let body = &s[1..s.len() - 1];
            let short = matches!(body, "\\n" | "\\r" | "\\t");
            let long = body.len() == 6
                && body.starts_with("\\u00")
                && u32::from_str_radix(&body[2..], 16) == Ok(c as u32);
            assert!(short || long, "U+{:04X} escaped as {s}", c as u32);
            assert!(
                !s.chars().any(|ch| (ch as u32) < 0x20),
                "raw control in {s}"
            );
        }
    }

    #[test]
    fn nesting_and_empty_containers() {
        let s = object(|o| {
            o.object("m", |_| {})
                .array("e", |_| {})
                .list("l", [1u64, 2])
                .array("a", |a| {
                    a.object(|e| {
                        e.field("x", true);
                    })
                    .string("s")
                    .raw("{}");
                })
                .raw("r", "[]")
                .fields([("f", 3)])
                .map("n", [("k", -1)], |e, v| {
                    e.field("v", v);
                });
        });
        assert_eq!(
            s,
            "{\"m\":{},\"e\":[],\"l\":[1,2],\"a\":[{\"x\":true},\"s\",{}],\"r\":[],\
             \"f\":3,\"n\":{\"k\":{\"v\":-1}}}"
        );
    }
}
