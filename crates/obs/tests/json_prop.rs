//! Property test: every string the JSON writer emits, as a key or as a
//! value, parses back to itself.

use proptest::prelude::*;
use rzen_obs::json::{parse, Value, Writer};

/// One character from a class chosen to stress the escaper: control
/// characters, the two JSON metacharacters, printable ASCII, DEL,
/// two-byte and three-byte UTF-8, and characters outside the BMP.
fn char_of(class: u8, raw: u32) -> char {
    let pick = |lo: u32, hi: u32| char::from_u32(lo + raw % (hi - lo + 1)).unwrap();
    match class {
        0 => pick(0, 0x1f),
        1 => ['"', '\\', '/'][raw as usize % 3],
        2 => pick(0x20, 0x7e),
        3 => '\u{7f}',
        4 => pick(0x80, 0x7ff),
        5 => pick(0x800, 0xd7ff),
        _ => pick(0x1_0000, 0x10_ffff),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn any_string_survives_write_then_parse(
        chars in prop::collection::vec((0u8..7, any::<u32>()), 0..48)
    ) {
        let s: String = chars.iter().map(|&(class, raw)| char_of(class, raw)).collect();
        let mut w = Writer::new();
        w.obj(|w| {
            w.field(&s, &s);
            w.key("in").arr(|w| {
                w.value(&s);
            });
        });
        let text = w.finish();
        let parsed = parse(&text).map_err(|e| TestCaseError(format!("{e}: {text:?}")))?;
        prop_assert_eq!(
            parsed,
            Value::Obj(vec![
                (s.clone(), Value::Str(s.clone())),
                ("in".to_string(), Value::Arr(vec![Value::Str(s.clone())])),
            ])
        );
    }
}
