//! Grammar substrate for the GLADE reproduction.
//!
//! This crate provides the language-representation machinery that the GLADE
//! grammar-synthesis algorithm ([Bastani et al., PLDI 2017]) and its
//! evaluation are built on:
//!
//! * [`CharClass`] — sets of bytes, the terminal alphabet.
//! * [`Regex`] — regular expressions (the output of GLADE's phase one) with
//!   an exact derivative-based membership test and random sampling.
//! * [`cfg::Grammar`] — context-free grammars with byte-class terminals (the
//!   output of GLADE's phase two and the representation of the handwritten
//!   evaluation grammars).
//! * [`Earley`] — a general CFG recognizer/parser used for recall
//!   measurement and by the grammar-based fuzzer, over a [`Recognizer`]:
//!   the grammar compiled once into owned tables, which membership oracles
//!   keep for all their queries.
//! * [`Sampler`] — bounded-depth uniform-production sampling of grammar
//!   members (the distribution of Section 8.1 of the paper).
//!
//! # Quick example
//!
//! ```
//! use glade_grammar::cfg::{GrammarBuilder, lit, nt};
//! use glade_grammar::{Earley, Sampler};
//! use rand::SeedableRng;
//!
//! // Matching tags: A → "<a>" A "</a>" | ε
//! let mut b = GrammarBuilder::new();
//! let a = b.nt("A");
//! b.prod(a, [lit(b"<a>"), nt(a), lit(b"</a>")].concat());
//! b.prod(a, vec![]);
//! let g = b.build(a)?;
//!
//! assert!(Earley::new(&g).accepts(b"<a><a></a></a>"));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let sample = Sampler::new(&g).sample(&mut rng).unwrap();
//! assert!(Earley::new(&g).accepts(&sample));
//! # Ok::<(), glade_grammar::cfg::GrammarError>(())
//! ```
//!
//! [Bastani et al., PLDI 2017]: https://doi.org/10.1145/3062341.3062349

#![warn(missing_docs)]

pub mod cfg;
mod charclass;
mod earley;
mod regex;
mod sample;
mod text;

pub use cfg::{Grammar, GrammarBuilder, GrammarError, NtId, Sym};
pub use charclass::CharClass;
pub use earley::{Earley, ParseTree, Recognizer};
pub use regex::Regex;
pub use sample::{Sampler, DEFAULT_MAX_DEPTH};
pub use text::{grammar_from_text, grammar_to_text, ParseGrammarError};
