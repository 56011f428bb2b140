//! Generators shared by the grammar crate's property batteries.

#![allow(dead_code)]

use glade_grammar::cfg::{cls, nt, GrammarBuilder};
use glade_grammar::{CharClass, Grammar, Regex};
use proptest::prelude::*;

/// A small alphabet keeps collisions (and hence interesting matches) likely.
pub fn small_byte() -> impl Strategy<Value = u8> {
    prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')]
}

pub fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        3 => small_byte().prop_map(|b| Regex::lit(&[b])),
        1 => Just(Regex::Epsilon),
        1 => proptest::collection::vec(small_byte(), 1..3)
            .prop_map(|bs| Regex::class(CharClass::from_bytes(&bs))),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Regex::concat),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Regex::alt),
            inner.prop_map(Regex::star),
        ]
    })
}

pub fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(small_byte(), 0..10)
}

/// Converts a regex to an equivalent CFG so Earley can be cross-checked
/// against the derivative matcher.
pub fn regex_to_cfg(r: &Regex) -> Grammar {
    fn go(r: &Regex, b: &mut GrammarBuilder, counter: &mut usize) -> Vec<glade_grammar::Sym> {
        match r {
            Regex::Empty => unreachable!("generator never emits bare Empty"),
            Regex::Epsilon => vec![],
            Regex::Class(c) => cls(*c),
            Regex::Concat(parts) => {
                let mut out = Vec::new();
                for p in parts {
                    out.extend(go(p, b, counter));
                }
                out
            }
            Regex::Alt(parts) => {
                *counter += 1;
                let id = b.nt(&format!("Alt{counter}"));
                let bodies: Vec<_> = parts.iter().map(|p| go(p, b, counter)).collect();
                for body in bodies {
                    b.prod(id, body);
                }
                nt(id)
            }
            Regex::Star(inner) => {
                *counter += 1;
                let id = b.nt(&format!("Star{counter}"));
                let body = go(inner, b, counter);
                b.prod(id, vec![]);
                b.prod(id, [nt(id), body].concat());
                nt(id)
            }
        }
    }
    let mut b = GrammarBuilder::new();
    let start = b.nt("S");
    let mut counter = 0;
    let body = go(r, &mut b, &mut counter);
    b.prod(start, body);
    b.build(start).expect("generated grammar is valid")
}

/// Applies `edits` (kind, position, byte) to `s`: kind 0 inserts the byte,
/// 1 deletes a byte, anything else substitutes one.
pub fn mutate(mut s: Vec<u8>, edits: &[(u8, usize, u8)]) -> Vec<u8> {
    for &(kind, at, byte) in edits {
        match kind {
            0 => s.insert(at % (s.len() + 1), byte),
            1 if !s.is_empty() => {
                s.remove(at % s.len());
            }
            _ if !s.is_empty() => {
                let i = at % s.len();
                s[i] = byte;
            }
            _ => {}
        }
    }
    s
}
