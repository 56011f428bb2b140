//! The eight instrumented target programs of the fuzzing evaluation
//! (Section 8.3), standing in for the paper's real subjects.
//!
//! | Paper subject        | Stand-in                          |
//! |----------------------|-----------------------------------|
//! | GNU sed              | [`Sed`] — sed script parser       |
//! | flex                 | [`Flex`] — scanner-spec parser    |
//! | GNU grep             | [`Grep`] — BRE pattern compiler   |
//! | GNU bison            | [`Bison`] — grammar-file parser   |
//! | libxml-style parser  | [`Xml`] — XML document parser     |
//! | Ruby                 | [`Ruby`] — statement parser       |
//! | CPython              | [`Python`] — indentation-aware parser |
//! | SpiderMonkey (JS)    | [`JavaScript`] — ES-core parser   |
//!
//! All stand-ins are blackbox-equivalent for GLADE's purposes: the
//! algorithm only observes accept/reject behaviour (Section 1 of the
//! paper), and each stand-in accepts a faithful core of the corresponding
//! real input language.

mod bison;
mod flex;
mod grep;
mod javascript;
mod python;
mod ruby;
mod sed;
mod xml;

pub use bison::Bison;
pub use flex::Flex;
pub use grep::Grep;
pub use javascript::JavaScript;
pub use python::Python;
pub use ruby::Ruby;
pub use sed::Sed;
pub use xml::Xml;

use crate::target::Target;

/// All eight targets in the paper's Figure 6/7 order.
pub fn all_targets() -> Vec<Box<dyn Target>> {
    vec![
        Box::new(Sed),
        Box::new(Flex),
        Box::new(Grep),
        Box::new(Bison),
        Box::new(Xml),
        Box::new(Ruby),
        Box::new(Python),
        Box::new(JavaScript),
    ]
}

/// Looks up a target by name.
pub fn target_by_name(name: &str) -> Option<Box<dyn Target>> {
    all_targets().into_iter().find(|t| t.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_targets_with_unique_names() {
        let ts = all_targets();
        assert_eq!(ts.len(), 8);
        let mut names: Vec<&str> = ts.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn every_target_accepts_its_seeds_and_rejects_noise() {
        for t in all_targets() {
            for s in t.seeds() {
                assert!(
                    t.run(&s).valid,
                    "{}: seed {:?} rejected",
                    t.name(),
                    String::from_utf8_lossy(&s)
                );
            }
            // A byte blob no parser accepts (note: grep treats most bytes
            // as ordinary pattern characters, but an unclosed \( group is
            // always an error).
            assert!(!t.run(b"\\(\x01\x02\xff@@@[".as_slice()).valid, "{}", t.name());
        }
    }

    #[test]
    fn coverable_lines_are_positive_and_bound_observed() {
        for t in all_targets() {
            assert!(t.coverable_lines() > 20, "{}", t.name());
            let mut all = crate::cov::Coverage::new();
            for s in t.seeds() {
                all.merge(&t.run(&s).coverage);
            }
            assert!(!all.is_empty(), "{}", t.name());
            assert!(all.len() <= t.coverable_lines(), "{}", t.name());
        }
    }

    #[test]
    fn covered_lines_fit_the_sized_bitmap() {
        // Every run sizes its bitmap from `source_lines()`; a line past it
        // would still be recorded, but would reallocate mid-run.
        for t in all_targets() {
            for s in t.seeds().iter().chain(&t.corpus()) {
                let max = t.run(s).coverage.iter().last().expect("a run covers a line");
                assert!(max as usize <= t.source_lines(), "{}: line {max}", t.name());
            }
        }
    }

    #[test]
    fn target_lookup_by_name() {
        assert!(target_by_name("sed").is_some());
        assert!(target_by_name("javascript").is_some());
        assert!(target_by_name("nope").is_none());
    }

    #[test]
    fn runs_never_panic_on_adversarial_bytes() {
        // Byte soup regression guard for all parsers.
        let nasty: &[&[u8]] = &[
            b"",
            b"\\",
            b"\xff\xfe\xfd",
            b"((((((((((",
            b"}}}}}",
            b"\"",
            b"'",
            b"<",
            b"<a",
            b"%%",
            b"%",
            b"s/",
            b"y/a/",
            b"[",
            b"[^",
            b"\\{",
            b"#{",
            b"0x",
            b"1e",
            b"def",
            b"if",
            b"do",
            b"a\tb",
            b"\n\n\n",
        ];
        for t in all_targets() {
            for s in nasty {
                let _ = t.run(s);
            }
        }
    }
}
