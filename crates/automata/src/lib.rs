//! Finite-automata substrate and language-inference baselines for the GLADE
//! reproduction.
//!
//! The GLADE paper (Bastani et al., PLDI 2017, Section 8.2) compares its
//! grammar synthesizer against the two most widely studied language
//! inference algorithms, both of which learn DFAs:
//!
//! * [`LStar`] — Angluin's active learner, driven by a membership oracle and
//!   an [`EquivalenceOracle`]. In the paper's blackbox setting the
//!   equivalence oracle is approximated by sampling
//!   ([`SamplingEquivalence`]).
//! * [`rpni`](fn@rpni) — the RPNI passive learner over positive and negative
//!   examples.
//!
//! Supporting machinery: [`Alphabet`]s, complete [`Dfa`]s with minimization,
//! equivalence checking and language sampling, and [`Nfa`]s with Thompson
//! construction from [`glade_grammar::Regex`] (see [`dfa_from_regex`]).
//!
//! # Example: exact learning with a perfect oracle
//!
//! ```
//! use glade_automata::{dfa_from_regex, Alphabet, LStar, PerfectEquivalence};
//! use glade_grammar::Regex;
//!
//! let sigma = Alphabet::from_bytes(b"ab");
//! let target = dfa_from_regex(&Regex::star(Regex::lit(b"ab")), sigma.clone());
//! let t = target.clone();
//! let result = LStar::new(sigma).learn(
//!     &mut |w: &[u8]| t.accepts(w),
//!     &mut PerfectEquivalence::new(target.clone()),
//! );
//! assert!(result.dfa.equivalent(&target));
//! ```

#![warn(missing_docs)]

mod alphabet;
mod dfa;
mod lstar;
mod nfa;
mod rpni;

pub use alphabet::Alphabet;
pub use dfa::Dfa;
pub use lstar::{
    EquivalenceOracle, LStar, LearnBudget, LearnResult, PerfectEquivalence, SamplingEquivalence,
};
pub use nfa::{dfa_from_regex, Nfa};
pub use rpni::{rpni, RpniError};
