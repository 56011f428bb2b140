//! Evaluation subjects for the GLADE reproduction.
//!
//! The paper evaluates GLADE on two kinds of subjects:
//!
//! * **Handwritten target-language grammars** (Section 8.2): URL, Grep,
//!   Lisp, and XML — see [`languages`]. Seed inputs are sampled from the
//!   grammar and the membership oracle is grammar membership.
//! * **Real programs** (Section 8.3): sed, flex, grep, bison, an XML
//!   parser, and the Ruby/Python/JavaScript front-ends — reproduced here as
//!   instrumented Rust parsers (see [`programs`]) that accept the same
//!   input languages and report gcov-style line coverage (see [`mod@cov`]).
//!
//! A [`Target`] bundles a program with its seeds and coverage accounting;
//! [`TargetOracle`] adapts any target into a [`glade_core::Oracle`] so the
//! synthesizer can learn its input grammar blackbox-style.
//!
//! ```
//! use glade_targets::{programs::Grep, Target, TargetOracle};
//! use glade_core::Oracle;
//!
//! let grep = Grep;
//! let oracle = TargetOracle::new(&grep);
//! assert!(oracle.accepts(b"^ab*c$"));
//! assert!(!oracle.accepts(b"\\(unclosed"));
//! ```

#![warn(missing_docs)]

pub mod corpora;
pub mod cov;
pub mod languages;
pub mod programs;
mod target;

pub use cov::{count_points, Coverage, RunOutcome};
pub use languages::{GrammarOracle, Language};
pub use target::{Target, TargetOracle};

/// Every built-in subject name, in listing order: the instrumented
/// [`programs`], then the Section 8.2 [`languages`] suffixed `-lang` (so
/// `xml-lang` does not clash with the `xml` program), then `toy-xml`.
///
/// `glade worker`, `glade synth --target`, `glade serve`'s `target:` specs
/// and `glade-oracle-worker` all resolve names through [`subject_oracle`].
pub fn subject_names() -> Vec<String> {
    let mut names: Vec<String> =
        programs::all_targets().iter().map(|t| t.name().to_owned()).collect();
    names.extend(languages::section82_languages().iter().map(|l| format!("{}-lang", l.name())));
    names.push(languages::toy_xml().name().to_owned());
    names
}

/// Resolves a name from [`subject_names`] to an in-process oracle; any
/// other name (an unsuffixed language name such as `url` included) is
/// `None`.
pub fn subject_oracle(name: &str) -> Option<Box<dyn glade_core::Oracle>> {
    if let Some(target) = programs::target_by_name(name) {
        // The programs are stateless unit structs, so leaking the box
        // allocates nothing and gives the oracle a `'static` borrow.
        let target: &'static dyn Target = Box::leak(target);
        return Some(Box::new(TargetOracle::new(target)));
    }
    let toy = languages::toy_xml();
    if name == toy.name() {
        return Some(Box::new(toy.oracle()));
    }
    let stem = name.strip_suffix("-lang")?;
    let language = languages::section82_languages().into_iter().find(|l| l.name() == stem)?;
    Some(Box::new(language.oracle()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_subject_resolves_and_no_other_name_does() {
        let names = subject_names();
        assert_eq!(names.len(), 8 + 4 + 1, "{names:?}");
        for name in &names {
            assert!(subject_oracle(name).is_some(), "`{name}` is listed but does not resolve");
        }
        // Languages answer only to their suffixed names; `grep` and `xml`
        // are the programs of the same name.
        for name in ["url", "lisp", "toy-xml-lang", "nope", "", "-lang", "sed-lang"] {
            assert!(!names.iter().any(|n| n == name), "`{name}` is listed");
            assert!(subject_oracle(name).is_none(), "`{name}` resolves");
        }
    }
}
